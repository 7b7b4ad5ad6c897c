package trace

// CommEvent kinds. A comm log holds the communication-protocol events the
// statically extracted skeleton (internal/commspec) predicts: phase
// transitions, point-to-point endpoints and collective entries.
const (
	CommPhase = "phase"
	CommSend  = "send"
	CommRecv  = "recv"
	CommColl  = "coll"
)

// CommEvent is one protocol event on one rank; a comm log lists each rank's
// events in program order.
type CommEvent struct {
	// Kind is one of CommPhase, CommSend, CommRecv, CommColl.
	Kind string
	// Name is the phase label (CommPhase) or collective op (CommColl).
	Name string
	// Peer is the partner rank of a send/recv.
	Peer int
	// Tag is the message tag of a send/recv.
	Tag int
	// Phase is the rank's current phase at send/recv/coll time.
	Phase string
}
