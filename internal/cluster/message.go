package cluster

// Message is one payload in flight between tasks. On the in-memory
// transport payloads stay in memory, whatever their type, and Bytes
// carries the size the payload would occupy on the wire, supplied by the
// sender (schemas know their encoded size), so the cost model can charge
// transfer time without serializing. The TCP transport carries one
// payload type, a batch of agent envelopes (transport.Envelope), encoded
// for real as a column block; Bytes still carries the schema-derived
// estimate so both transports meter identically.
type Message struct {
	From, To NodeID
	Tag      int // phase tag, lets a receiver sanity-check routing
	Payload  any
	Bytes    int
}
