package transport

import (
	"testing"

	"github.com/bigreddata/brace/internal/cluster"
)

// BenchmarkTransport measures one phase of cross-partition traffic — a
// batch of sends, the phase flush, and the drain — on both transports, so
// the README's transport baseline (messages/s and bytes/s) has a
// like-for-like mem vs loopback-TCP datapoint. The TCP variant pays for
// gob encoding twice (worker→hub, hub→worker) plus two socket hops, which
// is the honest cost of the star topology.
func BenchmarkTransport(b *testing.B) {
	const batch = 64
	payload := make([]float64, 128)
	bytesPer := 8 * len(payload)

	b.Run("mem", func(b *testing.B) {
		tr := NewMem(2)
		b.SetBytes(int64(batch * bytesPer))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				tr.Send(cluster.Message{From: 0, To: 1, Tag: 1, Payload: payload, Bytes: bytesPer})
			}
			if err := endPhase(tr); err != nil {
				b.Fatal(err)
			}
			tr.Drain(1)
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	})

	b.Run("tcp-loopback", func(b *testing.B) {
		trs, conns, res := miniCluster(b, 2, 2) // proc0 owns {0}, proc1 owns {1}
		peerDone := make(chan error, 1)
		go func() {
			for i := 0; i < b.N; i++ {
				if err := endPhase(trs[1]); err != nil {
					peerDone <- err
					return
				}
				trs[1].Drain(1)
			}
			peerDone <- nil
		}()
		b.SetBytes(int64(batch * bytesPer))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				if err := trs[0].Send(cluster.Message{From: 0, To: 1, Tag: 1, Payload: payload, Bytes: bytesPer}); err != nil {
					b.Fatal(err)
				}
			}
			if err := endPhase(trs[0]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := <-peerDone; err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		for i, c := range conns {
			c.Send(&Frame{Kind: FrameFinal, Src: i, Final: &FinalReport{Proc: i}})
		}
		if r := <-res; r.err != nil {
			b.Fatal(r.err)
		}
	})
}
