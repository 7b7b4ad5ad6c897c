package trace

import (
	"encoding/json"
	"fmt"
)

// CommEvent kinds. A comm log holds the communication-protocol events the
// statically extracted skeleton (internal/commspec) predicts: phase
// transitions, point-to-point endpoints and collective entries.
const (
	CommPhase = "phase"
	CommSend  = "send"
	CommRecv  = "recv"
	CommColl  = "coll"
)

// CommEvent is one protocol event on one rank.
type CommEvent struct {
	// Rank is the acting rank.
	Rank int `json:"rank"`
	// Kind is one of CommPhase, CommSend, CommRecv, CommColl.
	Kind string `json:"kind"`
	// Name is the phase label (CommPhase) or collective op (CommColl).
	Name string `json:"name,omitempty"`
	// Peer is the partner rank of a send/recv.
	Peer int `json:"peer,omitempty"`
	// Tag is the message tag of a send/recv.
	Tag int `json:"tag,omitempty"`
	// Phase is the rank's current phase at send/recv/coll time.
	Phase string `json:"phase,omitempty"`
}

// CommLog is the serialized form of a recorded run.
type CommLog struct {
	// N is the job size.
	N int `json:"n"`
	// Events is the rank-major event list.
	Events []CommEvent `json:"events"`
}

// JSON renders the log as deterministic indented JSON: rank-major event
// order, fixed field order, trailing newline.
func (l *CommLog) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseCommLog loads a log written by JSON.
func ParseCommLog(data []byte) (*CommLog, error) {
	var l CommLog
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("trace: bad comm log: %w", err)
	}
	if l.N <= 0 {
		return nil, fmt.Errorf("trace: comm log has non-positive rank count %d", l.N)
	}
	for i, ev := range l.Events {
		if ev.Rank < 0 || ev.Rank >= l.N {
			return nil, fmt.Errorf("trace: comm log event %d has rank %d outside [0, %d)", i, ev.Rank, l.N)
		}
		switch ev.Kind {
		case CommPhase, CommSend, CommRecv, CommColl:
		default:
			return nil, fmt.Errorf("trace: comm log event %d has unknown kind %q", i, ev.Kind)
		}
	}
	return &l, nil
}

// PerRank splits the log back into per-rank program-order sequences.
func (l *CommLog) PerRank() [][]CommEvent {
	out := make([][]CommEvent, l.N)
	for _, ev := range l.Events {
		out[ev.Rank] = append(out[ev.Rank], ev)
	}
	return out
}
