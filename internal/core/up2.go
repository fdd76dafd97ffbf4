package core

import "math"

// NextUp2 applies the update-history carry rule of paper §5.2.2 when a page
// whose prior version lives in a segment with penultimate-update estimate
// segUp2 is updated at time now (update-count clock): the prior up1 is
// assumed midway between now and up2, and with the new update that prior up1
// becomes the new up2:
//
//	new(up2) = old(up2) + 0.5*(now - old(up2))
//
// The same value serves three roles: it is carried on the new page version
// (its sort key for frequency separation), it becomes the source segment's
// advanced up2, and at seal time the average of the carried values of a
// segment's members initializes that segment's up2.
func NextUp2(segUp2 float64, now uint64) float64 {
	return segUp2 + 0.5*(float64(now)-segUp2)
}

// SmoothInterval folds a newly observed update interval into a running
// midpoint estimate: a single exponential interval sample has coefficient of
// variation 1, far too noisy to band pages by, so routers feed on the
// midpoint of successive observations instead. prev == 0 means no prior
// estimate; the result is clamped to [1, MaxUint32].
func SmoothInterval(prev uint32, obs uint64) uint32 {
	if obs == 0 {
		obs = 1
	}
	if obs > math.MaxUint32 {
		obs = math.MaxUint32
	}
	if prev != 0 {
		obs = (uint64(prev) + obs) / 2
		if obs == 0 {
			obs = 1
		}
	}
	return uint32(obs)
}
