package core

import "testing"

// BenchmarkDrainAbsorbCycle measures one agent→collector interval
// hand-off over a paper-default pipeline (5 features × 3 clones × 1024
// bins) holding a 5k-flow open interval: DrainOpenInterval copies the
// clone snapshots and the flow buffer, AbsorbOpenInterval merges them
// into the primary additively, and the primary closes the interval.
func BenchmarkDrainAbsorbCycle(b *testing.B) {
	mk := func() *Pipeline {
		p, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(p.Close)
		return p
	}
	agent, primary := mk(), mk()
	recs := snapRecords(0, 5000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.ObserveBatch(recs)
		if err := primary.AbsorbOpenInterval(agent.DrainOpenInterval()); err != nil {
			b.Fatal(err)
		}
		if _, err := primary.EndInterval(); err != nil {
			b.Fatal(err)
		}
	}
}
