package cluster

// Message is one batch in flight between tasks. Payload points to the
// batch: the mapreduce runtime sends a *[]V, its outbox slot for the
// destination, because a pointer boxes into an interface without
// allocating, and the receiver copies the batch out before the sender
// refills the slot next phase. On the in-memory transport the payload
// stays in memory, whatever its type. The TCP transport carries one
// payload type, a batch of agent envelopes (transport.Envelope): it
// encodes a *[]*transport.Envelope, or a bare []*transport.Envelope, as a
// column block, and decodes it as a *[]*transport.Envelope.
//
// Bytes carries the size the payload would occupy on the wire, supplied by
// the sender (schemas know their encoded size), so the cost model can
// charge transfer time without serializing; the TCP transport meters the
// same estimate, so both transports meter identically.
type Message struct {
	From, To NodeID
	Tag      int // phase tag, lets a receiver sanity-check routing
	Payload  any
	Bytes    int
}
