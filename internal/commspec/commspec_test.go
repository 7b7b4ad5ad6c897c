package commspec

import "testing"

func TestEvalInt(t *testing.T) {
	cases := []struct {
		src       string
		rank, n   int
		want      int
		wantKnown bool
	}{
		{"rank", 3, 8, 3, true},
		{"N", 3, 8, 8, true},
		{"((rank+1)%N)", 7, 8, 0, true},
		{"(((rank-1)+N)%N)", 0, 8, 7, true},
		{"(rank^1)", 6, 8, 7, true},
		{"(rank^2)", 1, 8, 3, true},
		{"((rank*2)+1)", 3, 8, 7, true},
		{"(N-1)", 0, 4, 3, true},
		{"(rank/2)", 5, 8, 2, true},
		{"(rank<<1)", 3, 8, 6, true},
		{"(rank>>1)", 5, 8, 2, true},
		{"(rank&1)", 5, 8, 1, true},
		{"(rank|4)", 1, 8, 5, true},
		{"(-1)", 0, 2, -1, true},
		{"42", 0, 2, 42, true},
		{"?", 5, 8, 0, false},
		// Go remainder semantics: truncated toward zero, sign of dividend.
		{"((rank-1)%N)", 0, 4, -1, true},
	}
	for _, c := range cases {
		got, known, err := EvalInt(c.src, c.rank, c.n)
		if err != nil {
			t.Errorf("EvalInt(%q, %d, %d): %v", c.src, c.rank, c.n, err)
			continue
		}
		if known != c.wantKnown || (known && got != c.want) {
			t.Errorf("EvalInt(%q, %d, %d) = (%d, %v), want (%d, %v)", c.src, c.rank, c.n, got, known, c.want, c.wantKnown)
		}
	}
}

func TestEvalBool(t *testing.T) {
	cases := []struct {
		src       string
		rank, n   int
		want      bool
		wantKnown bool
	}{
		{"(rank>0)", 0, 4, false, true},
		{"(rank>0)", 3, 4, true, true},
		{"(rank<(N-1))", 3, 4, false, true},
		{"((rank>0)&&(rank<(N-1)))", 2, 4, true, true},
		{"((rank==0)||(rank==(N-1)))", 1, 4, false, true},
		{"(!(rank==0))", 0, 4, false, true},
		{"((rank&1)==0)", 2, 4, true, true},
		{"true", 0, 2, true, true},
		{"false", 0, 2, false, true},
		{"?", 0, 2, false, false},
	}
	for _, c := range cases {
		got, known, err := EvalBool(c.src, c.rank, c.n)
		if err != nil {
			t.Errorf("EvalBool(%q, %d, %d): %v", c.src, c.rank, c.n, err)
			continue
		}
		if known != c.wantKnown || (known && got != c.want) {
			t.Errorf("EvalBool(%q, %d, %d) = (%v, %v), want (%v, %v)", c.src, c.rank, c.n, got, known, c.want, c.wantKnown)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	bad := []string{
		"rank+",   // syntax
		"x",       // unknown identifier
		"rank()",  // call
		"1.5",     // float literal
		`"s"`,     // string literal
		"rank[0]", // index
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
	if _, _, err := EvalInt("(rank%N)", 1, 0); err == nil {
		t.Error("remainder by zero succeeded")
	}
	if _, _, err := EvalInt("(rank/0)", 1, 2); err == nil {
		t.Error("division by zero succeeded")
	}
	if _, _, err := EvalInt("(rank>0)", 1, 2); err == nil {
		t.Error("boolean evaluated as integer")
	}
	if _, _, err := EvalBool("(rank+1)", 1, 2); err == nil {
		t.Error("integer evaluated as boolean")
	}
}

func testSkeleton() *Skeleton {
	return &Skeleton{
		Kernels: []Kernel{
			{
				Name:   "ring",
				Phases: []string{"halo", "norm"},
				Collectives: []Collective{
					{Op: "Allreduce", Phase: "norm", Pos: "x.go:30"},
				},
				P2P: []P2P{
					{Dir: "send", Partner: "((rank+1)%N)", Tag: "1", Phase: "halo", Pos: "x.go:10"},
					{Dir: "recv", Partner: "(((rank-1)+N)%N)", Tag: "1", Phase: "halo", Pos: "x.go:11"},
					{Dir: "send", Partner: "(rank-1)", Tag: "2", Phase: "halo", Guard: "(rank>0)", Pos: "x.go:12"},
				},
			},
			{Name: "alone", Phases: []string{"p"}},
		},
	}
}

func TestConformanceChecks(t *testing.T) {
	k := testSkeleton().Kernel("ring")
	if k == nil {
		t.Fatal("kernel lookup failed")
	}

	if err := k.CheckPhase("halo"); err != nil {
		t.Errorf("predicted phase rejected: %v", err)
	}
	if err := k.CheckPhase("rogue"); err == nil {
		t.Error("unpredicted phase accepted")
	}

	if err := k.CheckCollective("Allreduce", "norm", 0, 4); err != nil {
		t.Errorf("predicted collective rejected: %v", err)
	}
	if err := k.CheckCollective("Allreduce", "halo", 0, 4); err == nil {
		t.Error("collective in wrong phase accepted")
	}
	if err := k.CheckCollective("Barrier", "norm", 0, 4); err == nil {
		t.Error("unpredicted collective op accepted")
	}

	// Ring send: rank 3 → 0 at N=4.
	if err := k.CheckP2P("send", 3, 0, 1, "halo", 4); err != nil {
		t.Errorf("predicted send rejected: %v", err)
	}
	// Wrong peer.
	if err := k.CheckP2P("send", 3, 1, 1, "halo", 4); err == nil {
		t.Error("send to unpredicted peer accepted")
	}
	// Wrong tag.
	if err := k.CheckP2P("recv", 0, 3, 9, "halo", 4); err == nil {
		t.Error("recv with unpredicted tag accepted")
	}
	// Guarded site: rank 0 may not take the (rank>0) send.
	if err := k.CheckP2P("send", 0, -1, 2, "halo", 4); err == nil {
		t.Error("guarded send accepted for rank violating the guard")
	}
	if err := k.CheckP2P("send", 2, 1, 2, "halo", 4); err != nil {
		t.Errorf("guarded send rejected for rank satisfying the guard: %v", err)
	}
}

func TestWildcardsAreSatisfiable(t *testing.T) {
	k := &Kernel{
		Name:   "w",
		Phases: []string{"p"},
		Collectives: []Collective{
			{Op: "Barrier", Phase: Unknown, Guard: Unknown, Pos: "a:1"},
		},
		P2P: []P2P{
			{Dir: "send", Partner: Unknown, Tag: Unknown, Phase: Unknown, Pos: "a:2"},
		},
	}
	if err := k.CheckCollective("Barrier", "anything", 5, 16); err != nil {
		t.Errorf("wildcard collective rejected: %v", err)
	}
	if err := k.CheckP2P("send", 5, 11, 99, "anything", 16); err != nil {
		t.Errorf("wildcard p2p rejected: %v", err)
	}
	if err := k.CheckP2P("recv", 5, 11, 99, "anything", 16); err == nil {
		t.Error("wildcard send matched a recv")
	}
}

func TestCompileWildcard(t *testing.T) {
	e, err := Compile(Unknown)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != Unknown {
		t.Errorf("String() = %q", e.String())
	}
	if _, known, err := e.Int(1, 2); known || err != nil {
		t.Errorf("wildcard Int = known %v err %v", known, err)
	}
	if _, known, err := e.Bool(1, 2); known || err != nil {
		t.Errorf("wildcard Bool = known %v err %v", known, err)
	}
}

func TestKernelLookupMissing(t *testing.T) {
	s := testSkeleton()
	if s.Kernel("nosuch") != nil {
		t.Error("missing kernel resolved")
	}
}
