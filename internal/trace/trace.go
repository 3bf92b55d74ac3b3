// Package trace generates and replays request-arrival workloads.
//
// The paper evaluates on three real traces — Wikipedia access (smooth,
// CV≈0.47), Twitter access (bursty, a 2× spike near t=850 s, CV≈1.0) and
// Azure Functions (highly spiky, CV≈1.3). Those traces are not
// redistributable, so this package synthesizes rate processes with the same
// published shapes (see DESIGN.md's substitution table) and turns them into
// arrival timestamps with a non-homogeneous Poisson process via Lewis-Shedler
// thinning. Real traces can still be replayed from CSV.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"pard/internal/wire"
)

// Kind names a built-in synthetic workload shape.
type Kind string

// Built-in workload kinds.
const (
	Wiki   Kind = "wiki"   // smooth diurnal ramp, low burstiness
	Tweet  Kind = "tweet"  // moderate noise with a 2× burst around t≈850 s
	Azure  Kind = "azure"  // rapid spiky oscillation
	Steady Kind = "steady" // constant rate (sanity baselines, stress tests)
	Step   Kind = "step"   // constant rate that doubles halfway through
)

// RateFunc maps elapsed time to an instantaneous request rate in req/s.
type RateFunc func(t time.Duration) float64

// Trace is a concrete arrival sequence.
type Trace struct {
	Name     string
	Arrivals []time.Duration // sorted, offsets from t=0
	Duration time.Duration
}

// Len returns the number of arrivals.
func (tr *Trace) Len() int { return len(tr.Arrivals) }

// AppendTrace appends tr behind a presence byte (0 for nil): Name |
// Arrivals | Duration, in the codec of package wire.
func AppendTrace(b []byte, tr *Trace) []byte {
	if tr == nil {
		return append(b, 0)
	}
	b = wire.AppendStr(append(b, 1), tr.Name)
	b = wire.AppendInts(b, tr.Arrivals)
	return binary.AppendVarint(b, int64(tr.Duration))
}

// ReadTrace decodes what AppendTrace wrote.
func ReadTrace(r *wire.Reader) *Trace {
	if !r.Bool() {
		return nil
	}
	return &Trace{Name: r.Str(), Arrivals: wire.Ints[time.Duration](r), Duration: r.Dur()}
}

// MeanRate returns the average request rate over the trace duration.
func (tr *Trace) MeanRate() float64 {
	if tr.Duration <= 0 {
		return 0
	}
	return float64(len(tr.Arrivals)) / tr.Duration.Seconds()
}

// Config parameterizes trace synthesis.
type Config struct {
	Kind     Kind
	Duration time.Duration
	// PeakRate scales the shape so its maximum nominal rate is PeakRate
	// req/s. Zero selects the paper's nominal peak for the kind.
	PeakRate float64
	Seed     int64
}

// Where the tweet and step bursts sit, as a fraction of the duration.
const (
	tweetBurstAt = 0.6 // ≈ t=850 s of the 1400 s trace in Fig. 2d/10
	stepBurstAt  = 0.5
)

// nominalPeak mirrors the y-axis ranges of Fig. 10 (left).
func nominalPeak(k Kind) float64 {
	switch k {
	case Wiki:
		return 400
	case Tweet:
		return 600
	case Azure:
		return 600
	case Steady:
		return 300
	case Step:
		return 400
	default:
		return 300
	}
}

// Rate returns the shape's rate function. The returned function is
// deterministic in t (noise terms are fixed-frequency harmonics, not RNG
// driven) so that integrating it is reproducible; Poisson sampling supplies
// the stochasticity.
func (c Config) Rate() (RateFunc, float64, error) {
	dur := c.Duration
	if dur <= 0 {
		return nil, 0, fmt.Errorf("trace: duration must be positive, got %v", dur)
	}
	peak := c.PeakRate
	if peak <= 0 {
		peak = nominalPeak(c.Kind)
	}
	T := dur.Seconds()
	switch c.Kind {
	case Wiki:
		// Smooth ramp from ~25% to 100% of peak with gentle harmonics
		// (Fig. 10 wiki panel: ~100 → 400 req/s over ~1000 s).
		f := func(t time.Duration) float64 {
			x := t.Seconds() / T
			base := 0.25 + 0.75*x
			wobble := 0.06*math.Sin(2*math.Pi*6*x) + 0.04*math.Sin(2*math.Pi*13*x+1.3)
			r := peak * (base + wobble)
			return clampRate(r, peak)
		}
		return f, peak * 1.1, nil
	case Tweet:
		// Mid-level noisy load with a 2× burst around tweetBurstAt.
		f := func(t time.Duration) float64 {
			x := t.Seconds() / T
			base := 0.45 + 0.08*math.Sin(2*math.Pi*3*x) + 0.07*math.Sin(2*math.Pi*11*x+0.7) +
				0.05*math.Sin(2*math.Pi*23*x+2.1)
			// Main burst: sharp rise (seconds, faster than cold starts),
			// exponential-ish decay (§3.2: input doubles around t=850 s).
			base += burstPulse(x, tweetBurstAt, 0.003, 0.035, 0.55)
			// Two secondary bursts.
			base += burstPulse(x, tweetBurstAt*0.45, 0.004, 0.02, 0.25)
			base += burstPulse(x, math.Min(tweetBurstAt*1.4, 0.95), 0.004, 0.018, 0.2)
			return clampRate(peak*base, peak)
		}
		return f, peak * 1.1, nil
	case Azure:
		// High-frequency spiky oscillation in the upper band
		// (Fig. 10 azure panel: 400–600 req/s, CV≈1.3 burstiness).
		f := func(t time.Duration) float64 {
			x := t.Seconds() / T
			base := 0.72 + 0.08*math.Sin(2*math.Pi*5*x)
			// Dense spike train at incommensurate frequencies gives the
			// spiky profile.
			s := math.Sin(2*math.Pi*97*x) * math.Sin(2*math.Pi*41*x+0.9)
			if s > 0.45 {
				base += 0.55 * (s - 0.45) / 0.55
			}
			if s < -0.55 {
				base -= 0.6 * (-s - 0.55) / 0.45
			}
			return clampRate(peak*base, peak)
		}
		return f, peak * 1.25, nil
	case Steady:
		f := func(time.Duration) float64 { return peak }
		return f, peak, nil
	case Step:
		f := func(t time.Duration) float64 {
			if t.Seconds()/T >= stepBurstAt {
				return peak
			}
			return peak / 2
		}
		return f, peak, nil
	default:
		return nil, 0, fmt.Errorf("trace: unknown kind %q", c.Kind)
	}
}

// burstPulse is a pulse at center (fractional time) with rise/decay widths
// and amplitude, used to compose bursty shapes.
func burstPulse(x, center, rise, decay, amp float64) float64 {
	d := x - center
	switch {
	case d < -rise || d > 6*decay:
		return 0
	case d < 0:
		return amp * (1 + d/rise)
	default:
		return amp * math.Exp(-d/decay)
	}
}

func clampRate(r, peak float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 1.2*peak {
		return 1.2 * peak
	}
	return r
}

// Generate synthesizes a trace from the config.
func Generate(c Config) (*Trace, error) {
	f, maxRate, err := c.Rate()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	arrivals := Thinning(f, maxRate, c.Duration, rng)
	return &Trace{
		Name:     string(c.Kind),
		Arrivals: arrivals,
		Duration: c.Duration,
	}, nil
}

// MustGenerate is Generate for static configs; it panics on config errors.
func MustGenerate(c Config) *Trace {
	tr, err := Generate(c)
	if err != nil {
		panic(err)
	}
	return tr
}

// Fixed returns a deterministic constant-gap arrival sequence: exactly one
// arrival every 1/rate seconds over [0, duration). Contrast Steady, which
// is Poisson with constant intensity — Fixed has zero arrival-time variance
// and is the classic open-loop load-generator schedule (CV = 0 baselines,
// capacity probes). It returns nil when rate or duration is non-positive.
func Fixed(rate float64, duration time.Duration) *Trace {
	if rate <= 0 || duration <= 0 {
		return nil
	}
	gap := time.Duration(float64(time.Second) / rate)
	if gap <= 0 {
		gap = time.Nanosecond
	}
	arrivals := make([]time.Duration, 0, expectedArrivals(rate, duration))
	for at := time.Duration(0); at < duration; at += gap {
		arrivals = append(arrivals, at)
	}
	return &Trace{Name: "fixed", Arrivals: arrivals, Duration: duration}
}

// Thinning samples a non-homogeneous Poisson process with intensity rate(t)
// bounded by maxRate over [0, duration) using Lewis-Shedler thinning. The
// arrival buffer is sized up front for the expected candidate count, so a
// long trace is one allocation rather than an append growth chain.
func Thinning(rate RateFunc, maxRate float64, duration time.Duration, rng *rand.Rand) []time.Duration {
	if maxRate <= 0 || duration <= 0 {
		return nil
	}
	return ThinningInto(make([]time.Duration, 0, expectedArrivals(maxRate, duration)),
		rate, maxRate, duration, rng)
}

// ThinningInto is Thinning appending into buf[:0], reusing its capacity —
// for callers regenerating traces in a loop. It returns nil (matching
// Thinning) when maxRate or duration is non-positive; the RNG draw sequence
// is identical to Thinning's, so generated traces are byte-for-byte the same
// for the same rng state.
func ThinningInto(buf []time.Duration, rate RateFunc, maxRate float64, duration time.Duration, rng *rand.Rand) []time.Duration {
	if maxRate <= 0 || duration <= 0 {
		return nil
	}
	out := buf[:0]
	t := 0.0
	end := duration.Seconds()
	for {
		t += rng.ExpFloat64() / maxRate
		if t >= end {
			return out
		}
		at := time.Duration(t * float64(time.Second))
		if rng.Float64()*maxRate <= rate(at) {
			out = append(out, at)
		}
	}
}

// expectedArrivals bounds the thinning candidate count (maxRate·duration,
// clamped to keep a pathological config from pre-reserving gigabytes).
func expectedArrivals(maxRate float64, duration time.Duration) int {
	n := maxRate * duration.Seconds()
	const limit = 16 << 20
	if n < 0 || n > limit {
		return limit
	}
	return int(n)
}

// Stats summarizes a trace: per-second arrival counts, their mean and CV.
type Stats struct {
	Seconds   int
	MeanRate  float64
	PeakRate  float64
	CV        float64 // coefficient of variation of per-second counts
	BurstCV   float64 // CV of residuals from a 30 s moving average (detrended)
	PerSecond []float64
}

// Analyze bins arrivals per second and computes summary statistics.
func (tr *Trace) Analyze() Stats {
	return tr.AnalyzeInto(nil)
}

// AnalyzeInto is Analyze using buf as the per-second count scratch (grown
// only when capacity is short) — for callers analyzing traces in a loop.
// Stats.PerSecond aliases the scratch, so it is only valid until the next
// AnalyzeInto call reusing the same buffer.
func (tr *Trace) AnalyzeInto(buf []float64) Stats {
	secs := int(math.Ceil(tr.Duration.Seconds()))
	if secs <= 0 {
		return Stats{}
	}
	var counts []float64
	if cap(buf) >= secs {
		counts = buf[:secs]
		for i := range counts {
			counts[i] = 0
		}
	} else {
		counts = make([]float64, secs)
	}
	for _, a := range tr.Arrivals {
		i := int(a.Seconds())
		if i >= secs {
			i = secs - 1
		}
		counts[i]++
	}
	var sum, peak float64
	for _, c := range counts {
		sum += c
		if c > peak {
			peak = c
		}
	}
	mean := sum / float64(secs)
	var ss float64
	for _, c := range counts {
		d := c - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(secs))
	cv := 0.0
	if mean > 0 {
		cv = std / mean
	}
	return Stats{
		Seconds:   secs,
		MeanRate:  mean,
		PeakRate:  peak,
		CV:        cv,
		BurstCV:   burstCV(counts, 30),
		PerSecond: counts,
	}
}

// burstCV detrends per-second counts with a centered moving average of the
// given width and returns std(residual)/mean: a trend-insensitive burstiness
// measure used to rank traces (wiki < tweet < azure, §5.4).
func burstCV(counts []float64, width int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	var mean float64
	for _, c := range counts {
		mean += c
	}
	mean /= float64(n)
	if mean == 0 {
		return 0
	}
	half := width / 2
	var ss float64
	for i := range counts {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		var local float64
		for j := lo; j <= hi; j++ {
			local += counts[j]
		}
		local /= float64(hi - lo + 1)
		d := counts[i] - local
		ss += d * d
	}
	return math.Sqrt(ss/float64(n)) / mean
}

// RateIn returns the mean arrival rate (req/s) over [from, to): the
// arrivals in the window over its length, 0 for an empty window.
func (tr *Trace) RateIn(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	lo := sort.Search(len(tr.Arrivals), func(i int) bool { return tr.Arrivals[i] >= from })
	hi := sort.Search(len(tr.Arrivals), func(i int) bool { return tr.Arrivals[i] >= to })
	return float64(hi-lo) / (to - from).Seconds()
}

// WriteCSV writes the trace as ReadCSV reads it back: a "# trace=<name>
// duration_s=<seconds>" header, then one arrival offset in seconds per line,
// every value to the nanosecond.
func (tr *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace=%s duration_s=%.9f\n", tr.Name, tr.Duration.Seconds())
	var line []byte
	for _, a := range tr.Arrivals {
		line = append(strconv.AppendFloat(line[:0], a.Seconds(), 'f', 9, 64), '\n')
		bw.Write(line) // a write error sticks, and Flush returns it
	}
	return bw.Flush()
}

// WriteFile writes the trace to a CSV file at path (see WriteCSV).
func (tr *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCSV parses a trace written by WriteCSV, or any newline-separated list
// of arrival offsets in seconds, and sorts the arrivals. Offsets are rounded
// to the nanosecond, so a WriteCSV round trip is exact for offsets below
// about 10⁶ s. Lines starting with '#' are comments, except that WriteCSV's
// header before the first arrival sets the trace's name and duration.
// Without it the trace is called name and lasts until 1 s after its last
// arrival; a header's duration must not end before the last arrival. Errors
// give name and the line number.
func ReadCSV(name string, r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	tr := &Trace{Name: name, Duration: -1}
	line, header := 0, 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(s, "# trace="); ok && len(tr.Arrivals) == 0 {
			i := strings.LastIndex(rest, " duration_s=")
			if i < 0 {
				return nil, fmt.Errorf("trace: %s:%d: header has no duration_s", name, line)
			}
			d, err := parseOffset(rest[i+len(" duration_s="):])
			if err != nil {
				return nil, fmt.Errorf("trace: %s:%d: duration_s: %w", name, line, err)
			}
			tr.Name, tr.Duration, header = rest[:i], d, line
			continue
		}
		if s == "" || s[0] == '#' {
			continue
		}
		a, err := parseOffset(s)
		if err != nil {
			return nil, fmt.Errorf("trace: %s:%d: %w", name, line, err)
		}
		tr.Arrivals = append(tr.Arrivals, a)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %s:%d: %w", name, line+1, err)
	}
	slices.Sort(tr.Arrivals)
	n := len(tr.Arrivals)
	switch {
	case tr.Duration < 0 && n == 0:
		tr.Duration = 0
	case tr.Duration < 0:
		tr.Duration = tr.Arrivals[n-1] + time.Second
	case n > 0 && tr.Duration < tr.Arrivals[n-1]:
		return nil, fmt.Errorf("trace: %s:%d: duration_s %.9f ends before the last arrival, at %.9f s",
			name, header, tr.Duration.Seconds(), tr.Arrivals[n-1].Seconds())
	}
	return tr, nil
}

// parseOffset reads an offset in seconds, rounded to the nanosecond. It
// refuses what is not a time.Duration from 0 on: negative, NaN, ±Inf and
// values past about 292 years.
func parseOffset(s string) (time.Duration, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	ns := math.Round(v * float64(time.Second))
	if !(v >= 0 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("offset %s s is not a duration from 0 to %.0f s", s, time.Duration(math.MaxInt64).Seconds())
	}
	return time.Duration(ns), nil
}

// kinds lists the shapes Resolve generates, besides "fixed".
var kinds = []Kind{Wiki, Tweet, Azure, Steady, Step}

// Resolve returns the trace a command-line argument names. A built-in kind
// is generated over duration with peak rate (0 = the kind's nominal peak)
// from seed; "fixed" is one arrival every 1/rate seconds (see Fixed); any
// other argument is the path of a CSV file, read by ReadCSV, whose header,
// if any, sets the name and duration.
func Resolve(arg string, duration time.Duration, rate float64, seed int64) (*Trace, error) {
	if arg == "fixed" {
		tr := Fixed(rate, duration)
		if tr == nil {
			return nil, fmt.Errorf("trace: fixed needs a positive rate and duration (got %v, %v)", rate, duration)
		}
		return tr, nil
	}
	if slices.Contains(kinds, Kind(arg)) {
		return Generate(Config{Kind: Kind(arg), Duration: duration, PeakRate: rate, Seed: seed})
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, fmt.Errorf("trace: %q is neither a kind (fixed or one of %v) nor a CSV file: %w", arg, kinds, err)
	}
	defer f.Close()
	return ReadCSV(arg, f)
}
