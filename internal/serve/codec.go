package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// The request decoders are the service's untrusted-input boundary, and the
// fuzzers in fuzz_test.go pin their contract through the handler for
// /predict, /sweep, /robustness and /trace: any byte sequence either
// decodes into a validated request or produces a 4xx — never a 500, never
// a panic, never a half-validated struct reaching the model layer.

// PredictRequest asks for one configuration of one kernel.
type PredictRequest struct {
	// Kernel is the lower-case NAS name ("ep", "ft", ...).
	Kernel string `json:"kernel"`
	// N is the processor count; it must lie on the kernel's campaign grid.
	N int `json:"n"`
	// F is the operating frequency (number in MHz, or "1.4ghz"/"1400mhz").
	F Gear `json:"f"`
}

// Validate reports the first structural problem with the request.
func (r PredictRequest) Validate() error {
	if r.Kernel == "" {
		return fmt.Errorf("serve: request has no kernel")
	}
	if r.N < 1 {
		return fmt.Errorf("serve: processor count n = %d", r.N)
	}
	if r.F.MHz <= 0 {
		return fmt.Errorf("serve: request has no frequency")
	}
	return nil
}

// SweepRequest asks for a kernel's full campaign grid.
type SweepRequest struct {
	Kernel string `json:"kernel"`
}

// Validate reports the first structural problem with the request.
func (r SweepRequest) Validate() error {
	if r.Kernel == "" {
		return fmt.Errorf("serve: request has no kernel")
	}
	return nil
}

// RobustnessRequest asks for a clean-fit-vs-perturbed-measurement sweep.
type RobustnessRequest struct {
	Kernel string `json:"kernel"`
	// Ns are the perturbed processor counts, ascending, on the kernel's
	// grid.
	Ns []int `json:"ns"`
	// Magnitudes are the ascending perturbation scales.
	Magnitudes []float64 `json:"magnitudes"`
	// Chaos is a faults.ParseSpec string for the magnitude-1 knobs; empty
	// selects experiments.DefaultRobustnessFaults(Seed).
	Chaos string `json:"chaos,omitempty"`
	// Seed keys the default fault config when Chaos is empty.
	Seed uint64 `json:"seed,omitempty"`
}

// TraceRequest asks for one observed run exported as Chrome trace-event
// JSON (Perfetto-compatible).
type TraceRequest struct {
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
	F      Gear   `json:"f"`
	// Chaos optionally perturbs the run (faults.ParseSpec string).
	Chaos string `json:"chaos,omitempty"`
}

// Validate reports the first structural problem with the request.
func (r TraceRequest) Validate() error {
	return PredictRequest{Kernel: r.Kernel, N: r.N, F: r.F}.Validate()
}

// errorBody is the uniform JSON error payload.
type errorBody struct {
	Error string `json:"error"`
}

// decode reads one strict JSON document into dst: unknown fields, trailing
// data and bodies over the server's byte cap are all client errors. The
// http.MaxBytesReader wrapping happens in the handler, so an oversized body
// surfaces here as a decode error rather than a connection reset.
func decode(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return fmt.Errorf("serve: request body over %d bytes", maxErr.Limit)
		}
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("serve: trailing data after the JSON document")
	}
	return nil
}

// writeJSON marshals v followed by one newline. The response structs
// contain only scalars and slices, so the bytes are a deterministic
// function of the values — the property the contract goldens pin.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Only a programming error (unmarshalable type) lands here.
		http.Error(w, `{"error":"serve: encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// writeError renders err as the uniform JSON error payload. When w is the
// instrumented statusWriter, the message is also captured for the request's
// wide event, so the event log explains its non-2xx statuses.
func writeError(w http.ResponseWriter, status int, err error) {
	if sw, ok := w.(*statusWriter); ok && sw.errMsg == "" {
		sw.errMsg = err.Error()
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}
