package ring

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRingMatchesSliceModel drives a ring and a plain slice through the
// same seeded sequences of appends, limit changes (grow, shrink, unbound)
// and resets, and requires the same values in the same order, the same
// length and the same drop count after every step.
func TestRingMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r Ring[int]
		var model []int
		var limit int
		var dropped uint64
		next := 0
		for step := 0; step < 400; step++ {
			var op string
			switch k := rng.Intn(20); {
			case k < 16:
				op = "next"
				next++
				*r.Next() = next
				model = append(model, next)
				if limit > 0 && len(model) > limit {
					model = model[1:]
					dropped++
				}
			case k < 19:
				limit = rng.Intn(12) // 0 unbounds
				op = "setlimit"
				r.SetLimit(limit)
				if limit > 0 && len(model) > limit {
					dropped += uint64(len(model) - limit)
					model = model[len(model)-limit:]
				}
			default:
				op = "reset"
				r.Reset()
				model = nil
			}
			got := r.All()
			if len(got) == 0 && len(model) == 0 {
				got, model = nil, nil
			}
			if !reflect.DeepEqual(got, model) || r.Len() != len(model) || r.Dropped() != dropped {
				t.Fatalf("seed %d step %d (%s, limit %d): ring %v len %d dropped %d, model %v dropped %d",
					seed, step, op, limit, got, r.Len(), r.Dropped(), model, dropped)
			}
		}
	}
}
