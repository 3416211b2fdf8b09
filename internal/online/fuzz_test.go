package online

import (
	"context"
	"math"
	"testing"
)

// fuzzWeights are the observation weights FuzzObserve draws from: the
// ordinary weight, every degenerate one the window must skip, and a
// positive subnormal-adjacent weight it must accept.
var fuzzWeights = [...]float64{1, 0, -1, math.NaN(), math.Inf(1), 1e-300}

// obsByte encodes one observation of template tmpl (0-15) from population
// pop (0 or 1) with weight fuzzWeights[wi].
func obsByte(tmpl, pop, wi int) byte { return byte(tmpl<<4 | pop<<3 | wi) }

// FuzzObserve feeds one decoded observation stream to two controllers over
// the test rig's two query populations — one warm-started, one with
// DisableWarmStart — with up to three re-designs interleaved. Each input
// byte is one op: low three bits 0-5 observe with weight fuzzWeights[bits]
// a query of population bit 3 and template bits 4-7; low bits 6 or 7 run
// Redesign on both controllers (ignored after the third). It asserts that
// nothing panics, that the window accounts for every Observe call as
// observed or skipped, that a published candidate never regresses the
// incumbent's worst-case cost, and that warm start changes no outcome.
func FuzzObserve(f *testing.F) {
	redesign := byte(6)
	var steady, mixed []byte
	for i := 0; i < 16; i++ {
		steady = append(steady, obsByte(i, 0, 0))
		mixed = append(mixed, obsByte(i, i%2, i%len(fuzzWeights)))
	}
	f.Add([]byte{})
	f.Add([]byte{redesign})
	f.Add(append(append(append([]byte{}, steady...), redesign), append(steady, redesign)...))
	f.Add(append(append([]byte{}, mixed...), redesign, obsByte(3, 1, 5), redesign))

	s := testSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		rigs := [2]*testRig{
			newRig(t, nil),
			newRig(t, func(c *Config) { c.DisableWarmStart = true }),
		}
		ctx := context.Background()
		observes, redesigns := 0, 0
		for i, b := range data {
			if op := int(b & 7); op < len(fuzzWeights) {
				q := popQuery(s, int(b>>4), int(b>>3)&1)
				for _, r := range rigs {
					r.ctrl.Observe(q, fuzzWeights[op])
				}
				observes++
				continue
			}
			if redesigns == 3 {
				continue
			}
			redesigns++
			var res [2]*Result
			var errs [2]error
			for j, r := range rigs {
				res[j], errs[j] = r.ctrl.Redesign(ctx)
			}
			if (errs[0] == nil) != (errs[1] == nil) || (errs[0] != nil && errs[0].Error() != errs[1].Error()) {
				t.Fatalf("op %d: warm and cold re-designs disagree: %v vs %v", i, errs[0], errs[1])
			}
			if errs[0] != nil {
				continue
			}
			for j, r := range res {
				if r.Published && !math.IsNaN(r.IncumbentWorst) && r.CandidateWorst > r.IncumbentWorst {
					t.Fatalf("op %d, controller %d: published candidate worst %g > incumbent worst %g",
						i, j, r.CandidateWorst, r.IncumbentWorst)
				}
			}
			if res[0].Published != res[1].Published || res[0].Design.Fingerprint() != res[1].Design.Fingerprint() {
				t.Fatalf("op %d: warm and cold re-designs differ: published %v/%v, design %s vs %s",
					i, res[0].Published, res[1].Published, res[0].Design, res[1].Design)
			}
			if rigs[0].ctrl.Incumbent().Fingerprint() != rigs[1].ctrl.Incumbent().Fingerprint() {
				t.Fatalf("op %d: warm and cold incumbents differ", i)
			}
		}
		for j, r := range rigs {
			if st := r.ctrl.Window().Stats(); st.Observed+st.Skipped != uint64(observes) {
				t.Fatalf("controller %d: observed %d + skipped %d != %d Observe calls", j, st.Observed, st.Skipped, observes)
			}
		}
	})
}
