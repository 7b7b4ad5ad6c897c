package analysis

import (
	"bytes"
	"encoding/json"
	"go/types"
	"testing"

	"pasp/internal/commspec"
)

// loadSkel loads the kernel-shaped testdata package for skeleton tests.
func loadSkel(t *testing.T) (string, []*Package) {
	t.Helper()
	root := repoRoot(t)
	pkgs, err := Load(root, []string{"internal/analysis/testdata/src/skel"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	return root, pkgs
}

func TestBuildSkeletonShape(t *testing.T) {
	root, pkgs := loadSkel(t)
	module, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSkeleton(root, module, pkgs, NewProgram(pkgs))
	if err != nil {
		t.Fatal(err)
	}
	if sk.Module != module {
		t.Errorf("module = %q, want %q", sk.Module, module)
	}
	k := sk.Kernel("ft")
	if k == nil {
		t.Fatalf("no kernel \"ft\" extracted; kernels: %+v", sk.Kernels)
	}
	wantPhases := map[string]bool{"ft-setup": false, "ft-exchange": false}
	for _, p := range k.Phases {
		if _, ok := wantPhases[p]; ok {
			wantPhases[p] = true
		}
	}
	for p, seen := range wantPhases {
		if !seen {
			t.Errorf("phase %q missing from skeleton: %v", p, k.Phases)
		}
	}
	if len(k.Collectives) != 1 || k.Collectives[0].Op != "Allreduce" {
		t.Errorf("collectives = %+v, want one Allreduce", k.Collectives)
	}
	var dirs []string
	for _, p := range k.P2P {
		dirs = append(dirs, p.Dir+" "+p.Partner)
		if p.Guard == "" {
			t.Errorf("pipeline-shift p2p entry lost its guard: %+v", p)
		}
	}
	if len(k.P2P) != 2 {
		t.Fatalf("p2p entries = %v, want recv (rank-1) and send (rank+1)", dirs)
	}
	// A named function passed as the mpi.Run body is descended into like
	// an inline closure.
	mg := sk.Kernel("mg")
	if mg == nil {
		t.Fatalf("no kernel \"mg\" extracted; kernels: %+v", sk.Kernels)
	}
	if len(mg.Phases) != 1 || mg.Phases[0] != "mg-smooth" {
		t.Errorf("named-body kernel phases = %v, want [mg-smooth]", mg.Phases)
	}
	if len(mg.Collectives) != 1 || mg.Collectives[0].Op != "Barrier" || mg.Collectives[0].Phase != "mg-smooth" {
		t.Errorf("named-body kernel collectives = %+v, want one Barrier in mg-smooth", mg.Collectives)
	}

	// The skeleton round-trips through its own parser (expressions valid).
	data, err := sk.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := commspec.ParseSkeleton(data); err != nil {
		t.Fatalf("extracted skeleton does not re-parse: %v", err)
	}
}

// TestMPIVocabularyMatchesRuntime: palint names mpi calls by method name,
// so every name its tables classify, and every method of the testdata stub
// the seeded packages call through, must be a method of the real runtime's
// *mpi.Ctx. An entry that outlives the call it names fails here.
func TestMPIVocabularyMatchesRuntime(t *testing.T) {
	const runtimePath, stubPath = "pasp/internal/mpi", "pasp/internal/analysis/testdata/src/mpistub"
	pkgs, err := Load(repoRoot(t), []string{"internal/mpi", "internal/analysis/testdata/src/mpistub"})
	if err != nil {
		t.Fatal(err)
	}
	methods := map[string]map[string]bool{}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, e)
		}
		ctx, ok := p.Types.Scope().Lookup("Ctx").(*types.TypeName)
		if !ok {
			t.Fatalf("%s declares no Ctx type", p.Path)
		}
		names := map[string]bool{}
		ms := types.NewMethodSet(types.NewPointer(ctx.Type()))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				names[m.Name()] = true
			}
		}
		methods[p.Path] = names
	}
	runtime, stub := methods[runtimePath], methods[stubPath]
	if len(runtime) == 0 || len(stub) == 0 {
		t.Fatalf("no exported Ctx methods loaded for %s or %s", runtimePath, stubPath)
	}
	for name := range commCollectives {
		if !runtime[name] {
			t.Errorf("commCollectives names %s, which *mpi.Ctx does not have", name)
		}
	}
	for name := range producerMethods {
		if !runtime[name] {
			t.Errorf("producerMethods names %s, which *mpi.Ctx does not have", name)
		}
	}
	for name := range stub {
		if !runtime[name] {
			t.Errorf("the mpistub Ctx has %s, which *mpi.Ctx does not have", name)
		}
	}
}

// TestSkeletonJSONDeterministic pins byte determinism across fully
// independent extraction runs (fresh FileSet, fresh Program).
func TestSkeletonJSONDeterministic(t *testing.T) {
	render := func() []byte {
		root, pkgs := loadSkel(t)
		module, err := ModulePath(root)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := BuildSkeleton(root, module, pkgs, NewProgram(pkgs))
		if err != nil {
			t.Fatal(err)
		}
		data, err := sk.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Errorf("skeleton JSON differs across extraction runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestRunWithProgramEquivalence pins the shared-Program contract: one
// Program serving every analyzer produces byte-identical diagnostics to the
// convenience Run wrapper.
func TestRunWithProgramEquivalence(t *testing.T) {
	root := repoRoot(t)
	pkgs, err := Load(root, []string{
		"internal/analysis/testdata/src/commshape",
		"internal/analysis/testdata/src/phasebal",
		"internal/analysis/testdata/src/deadlock",
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(Run(pkgs, All()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(RunWithProgram(NewProgram(pkgs), pkgs, All()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("shared-Program run differs from Run:\n--- Run ---\n%s\n--- RunWithProgram ---\n%s", a, b)
	}
}

// BenchmarkPalintTree measures the full 12-pass suite over the repository
// with a shared interprocedural Program — the configuration `make lint`
// runs. Loading is excluded: the benchmark isolates analysis cost.
func BenchmarkPalintTree(b *testing.B) {
	wd, err := Load("../..", []string{"./..."})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := NewProgram(wd)
		if diags := RunWithProgram(prog, wd, All()); len(Active(diags)) != 0 {
			b.Fatalf("tree not clean: %d active findings", len(Active(diags)))
		}
	}
}
