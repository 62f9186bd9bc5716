package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"smokescreen/internal/stream"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest value with at least q of the samples at or below it. Failed
// requests enter as +Inf, so they count as missing any latency limit.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the steadiness report matches the acceptance
// arithmetic exactly. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// sampleSize is the candidate design's sample for fraction f of an
// N-frame corpus: f·N rounded to the nearest frame, at least one.
func sampleSize(f float64, n int) int {
	k := int(float64(n)*f + 0.5)
	if k < 1 {
		k = 1
	}
	return k
}

// windowCount is the number of windows of span positions, starting every
// stride positions from 0, that fit whole in a stream of the given
// length; a trailing partial window is never emitted.
func windowCount(positions, span, stride int) int {
	if span <= 0 || stride <= 0 || positions < span {
		return 0
	}
	return (positions-span)/stride + 1
}

// checkWindowSeqs checks that the windows a stream served are numbered
// 0 to want-1 in order, none missing and none repeated.
func checkWindowSeqs(windows []stream.WindowResult, want int) error {
	for i, w := range windows {
		if w.Seq != i {
			return fmt.Errorf("window %d has sequence number %d", i, w.Seq)
		}
	}
	if len(windows) != want {
		return fmt.Errorf("%d windows, want %d", len(windows), want)
	}
	return nil
}

// binomialAllowance is the number of bound misses tolerated among n
// independent bounds that each hold with probability at least 1-delta:
// the smallest k with P(Binomial(n, delta) > k) <= alpha. A count of
// misses above it is evidence, at level alpha, that the bounds do not
// hold at the promised rate.
func binomialAllowance(n int, delta, alpha float64) int {
	if n <= 0 {
		return 0
	}
	// Walk the pmf upward in log space; n stays small (hundreds).
	cdf := 0.0
	logp, logq := math.Log(delta), math.Log1p(-delta)
	for k := 0; k <= n; k++ {
		lg := lgammaInt(n+1) - lgammaInt(k+1) - lgammaInt(n-k+1)
		cdf += math.Exp(lg + float64(k)*logp + float64(n-k)*logq)
		if 1-cdf <= alpha {
			return k
		}
	}
	return n
}

func lgammaInt(n int) float64 {
	v, _ := math.Lgamma(float64(n))
	return v
}

// capacityStep is one open-loop rate step as capacity selection sees it.
type capacityStep struct {
	Rate    float64 // offered requests per second
	P99Ms   float64 // p99 latency from due time, failures as +Inf
	Due     int     // requests the schedule made due
	Backlog int     // requests due inside the step but sent after it ended
}

// passes reports whether the step met the latency limit without a growing
// backlog: at most 1% of its requests (and at least one) may spill past
// the step's end.
func (s capacityStep) passes(limitMs float64) bool {
	allowed := s.Due / 100
	if allowed < 1 {
		allowed = 1
	}
	return s.P99Ms <= limitMs && s.Backlog <= allowed
}

// selectCapacity returns the index of the highest-rate step that passes,
// or -1 when none does.
func selectCapacity(steps []capacityStep, limitMs float64) int {
	best := -1
	for i, s := range steps {
		if s.passes(limitMs) && (best < 0 || s.Rate > steps[best].Rate) {
			best = i
		}
	}
	return best
}

// module names the layer a CPU-profile sample belongs to, from its stack's
// function names, innermost first. The innermost frame of this
// repository's internal packages wins, so standard-library work such as
// compress/flate counts toward the module that called it. The
// benchmark's own client code is "bench". Samples with no repository
// frame go to runtime.gc, net or other.
func module(stack []string) string {
	for _, fn := range stack {
		if m := repoModule(fn); m != "" {
			return m
		}
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/") || strings.HasPrefix(fn, "internal/poll.") {
			return "net"
		}
	}
	return "other"
}

func repoModule(fn string) string {
	const internal = "smokescreen/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "smokescreen/perfbench") || strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.scanobject"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
