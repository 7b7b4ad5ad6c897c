package mpi

import (
	"fmt"

	"pasp/internal/trace"
)

// message is one point-to-point transfer in flight.
type message struct {
	tag    int
	data   []float64
	vbytes int
	// arrival is when the last byte reaches the receiver's port (eager
	// protocol), already including the sender's egress serialization and
	// the wire latency.
	arrival float64
	// ready is the sender's clock after protocol processing; used by the
	// rendezvous and exchange protocols, where the transfer cannot start
	// before both sides are ready.
	ready float64
	// rendezvous marks a large message whose sender parks until the
	// receiver drains it and reports the sender's completion time.
	rendezvous bool
	// exchange marks a message sent from inside SendRecv, whose timing is
	// symmetric (both sides block).
	exchange bool
}

// Bytes returns the size used for timing: the virtual byte count when set,
// otherwise 8 bytes per float64 of payload.
func (m message) Bytes() int {
	if m.vbytes > 0 {
		return m.vbytes
	}
	return 8 * len(m.data)
}

// msgFaultDelays draws the chaos perturbation of one received message and
// splits it into the retry backoff (dropped transmissions redelivered after
// exponentially backed-off timeouts) and the fault stretch (degraded
// serialization plus latency jitter). Delivery-side injection keeps the
// draw order deterministic: per-pair FIFO fixes which message each Recv
// sees, and the receiving rank's draw stream advances in its own program
// order. The caller must have checked c.faults != nil.
func (c *Ctx) msgFaultDelays(bytes int) (backoff, stretch float64) {
	net := &c.eng.w.Net
	f := c.faults.Message(net.LatencySec)
	c.retries += f.Retries
	backoff = c.faults.BackoffSec(f.Retries)
	stretch = (net.DegradedWireTime(bytes, f.WireFactor) - net.WireTime(bytes)) +
		(net.JitteredLatency(f.ExtraLatencySec) - net.LatencySec)
	return backoff, stretch
}

// chargeMsgFaults appends the injected intervals of one received message
// after its clean bookkeeping: backoff under the Retry kind, then the
// stretch under the Fault kind, both billed at the poll utilization (the
// receiver busy-waits through them like any other communication stall).
func (c *Ctx) chargeMsgFaults(backoff, stretch float64) error {
	if err := c.advanceFault(backoff, trace.Retry, pollUtil); err != nil {
		return err
	}
	return c.advanceFault(stretch, trace.Fault, pollUtil)
}

// Send transmits data to rank dst with the given tag. vbytes, when
// positive, overrides the timed message size so a scaled-down payload can
// stand in for a full-size NAS-class message; pass 0 to time the actual
// payload. Small messages use the eager protocol (the sender only pays its
// CPU overhead); messages above the rendezvous threshold block the sender
// until the receiver arrives, like MPICH's rendezvous protocol.
func (c *Ctx) Send(dst, tag int, data []float64, vbytes int) error {
	if err := c.checkPeer("destination", dst); err != nil {
		return err
	}
	if c.rec != nil {
		c.rec.add(recOp{kind: opSend, peer: dst, tag: tag, nlen: len(data), vbytes: vbytes})
	}
	// MPI semantics: the send buffer is the caller's again as soon as Send
	// returns, so the payload must be snapshotted here — senders routinely
	// reuse (and mutate) their buffers immediately.
	m := message{tag: tag, data: c.snapshotPayload(data), vbytes: vbytes}
	b := m.Bytes()
	c.noteMsgs(1, b)
	net := &c.eng.w.Net
	o := c.cpuOverhead(b)
	m.ready = c.clock + o

	if net.Rendezvous(b) {
		m.rendezvous = true
		// Enqueue, then park until the receiver reports the sender-side
		// completion time.
		if err := c.eng.send(c, dst, m); err != nil {
			return err
		}
		doneAt, err := c.eng.waitRendezvous(c)
		if err != nil {
			return err
		}
		c.egressFree = doneAt
		return c.advanceComm(doneAt)
	}

	// Eager: inject as soon as both the stack work is done and the port is
	// free; the sender returns after its CPU overhead.
	injectStart := m.ready
	if c.egressFree > injectStart {
		injectStart = c.egressFree
	}
	injectEnd := injectStart + net.WireTime(b)
	c.egressFree = injectEnd
	m.arrival = injectEnd + net.LatencySec
	if err := c.eng.send(c, dst, m); err != nil {
		return err
	}
	return c.advanceComm(m.ready)
}

// Recv receives the next message from rank src, which must carry the given
// tag (per-pair FIFO ordering is guaranteed, as in MPI). It returns the
// payload. The returned slice is owned exclusively by the caller; once its
// contents have been copied out or consumed, the caller may recycle it with
// Free.
func (c *Ctx) Recv(src, tag int) ([]float64, error) {
	if c.rec != nil {
		c.rec.add(recOp{kind: opRecv, peer: src, tag: tag})
	}
	return c.recvTimed(src, tag)
}

// recvTimed is Recv without the recording hook: SendRecv's interior receive
// goes through here so a recorded SendRecv replays as one operation, not
// two.
func (c *Ctx) recvTimed(src, tag int) ([]float64, error) {
	if err := c.checkPeer("source", src); err != nil {
		return nil, err
	}
	m, err := c.eng.recv(c, src)
	if err != nil {
		return nil, err
	}
	if m.tag != tag {
		return nil, fmt.Errorf("mpi: rank %d expected tag %d from rank %d, got %d", c.rank, tag, src, m.tag)
	}
	b := m.Bytes()
	net := &c.eng.w.Net
	or := c.cpuOverhead(b)
	wire := net.WireTime(b)
	// A dropped message is redelivered: the receiver eats the retransmission
	// timeouts (Retry) and the perturbed transfer (Fault) before the payload
	// is usable, whatever the protocol. Without an injector both stay zero.
	var backoff, stretch float64
	if c.faults != nil {
		backoff, stretch = c.msgFaultDelays(b)
	}

	// Eager data is available at m.arrival. Rendezvous and exchange
	// transfers start once both sides are ready and land a latency plus
	// wire time later. A rendezvous sender streams the data (staying busy),
	// and the handshake retries and the perturbed transfer hold it too, so
	// its completion reflects the same injected time. The receiver's own
	// egress activity could also delay its CTS; the model ignores that
	// minor effect.
	end := m.arrival
	if m.rendezvous || m.exchange {
		start := m.ready
		if c.clock > start {
			start = c.clock
		}
		if m.rendezvous {
			c.eng.completeRendezvous(src, start+wire+backoff+stretch)
		}
		end = start + net.LatencySec + wire
	}
	// The ingress port can only drain one message at a time.
	if min := c.ingressBusy + wire; end < min {
		end = min
	}
	c.ingressBusy = end + backoff + stretch
	if err := c.advanceComm(end + or); err != nil {
		return nil, err
	}
	if err := c.chargeMsgFaults(backoff, stretch); err != nil {
		return nil, err
	}
	return m.data, nil
}

// SendRecv exchanges messages with two (possibly equal) peers: data goes to
// dst while a message is received from src. Both transfers are timed as a
// full-duplex exchange, so a symmetric neighbour exchange cannot deadlock
// regardless of message size.
func (c *Ctx) SendRecv(dst, src, tag int, data []float64, vbytes int) ([]float64, error) {
	if err := c.checkPeer("destination", dst); err != nil {
		return nil, err
	}
	if c.rec != nil {
		c.rec.add(recOp{kind: opSendRecv, peer: dst, peer2: src, tag: tag, nlen: len(data), vbytes: vbytes})
	}
	net := &c.eng.w.Net
	out := message{tag: tag, data: c.snapshotPayload(data), vbytes: vbytes, exchange: true}
	c.noteMsgs(1, out.Bytes())
	out.ready = c.clock + c.cpuOverhead(out.Bytes())
	c.egressFree = out.ready + net.WireTime(out.Bytes())
	if err := c.eng.send(c, dst, out); err != nil {
		return nil, err
	}
	got, err := c.recvTimed(src, tag)
	if err != nil {
		return nil, err
	}
	// Recv advanced the clock past the incoming transfer; the outgoing one
	// overlaps on the full-duplex link, so no extra charge beyond the send
	// CPU overhead already folded into out.ready (covered because the
	// exchange completion takes the max of both ready times at the peer).
	return got, nil
}
