// The deterministic load-test harness: seeded arrival-process generation
// over virtual time. Schedules are pure functions of (LoadSpec, query pool)
// via synth.RNG, so a load test replays bit-identically — the foundation of
// the streaming-vs-offline golden tests and the K6 latency experiments.
package serve

import (
	"math"
	"sort"

	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
)

// Profile selects a tenant's arrival process.
type Profile uint8

const (
	// ProfileSteady is a Poisson process at RatePerSec.
	ProfileSteady Profile = iota
	// ProfileBursty alternates dense bursts (geometric length, tight
	// intra-burst gaps) with exponential idle stretches, averaging
	// RatePerSec overall.
	ProfileBursty
	// ProfileAdversarial floods far past RatePerSec in short windows —
	// sized to overrun ingress queues and quotas — separated by silence.
	// It exists to exercise backpressure, not to model polite clients.
	ProfileAdversarial
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case ProfileBursty:
		return "bursty"
	case ProfileAdversarial:
		return "adversarial"
	}
	return "steady"
}

// TenantLoad is one tenant's offered load.
type TenantLoad struct {
	// Tenant declares the tenant (the schedule uses its Name).
	Tenant TenantConfig
	// Profile shapes the arrival process.
	Profile Profile
	// RatePerSec sets the offered load, in queries per virtual second. It
	// is the mean offered rate of a steady or bursty tenant. An
	// adversarial tenant offers a flood of about 2 × RatePerSec queries
	// every 2/RatePerSec seconds on average, so about RatePerSec² queries
	// per second; LoadSpec.ExpectedArrivals counts what a spec offers.
	RatePerSec float64
}

// LoadSpec is a complete seeded workload.
type LoadSpec struct {
	// Seed fixes every arrival instant and query assignment.
	Seed uint64
	// HorizonSec bounds the arrival window [0, HorizonSec).
	HorizonSec float64
	// Loads lists the tenants and their offered load.
	Loads []TenantLoad
}

// Arrival is one scheduled submission.
type Arrival struct {
	// AtSec is the arrival instant.
	AtSec float64
	// Tenant names the submitting tenant.
	Tenant string
	// Spec is the query spectrum, drawn round-robin per tenant from the
	// pool.
	Spec *spectrum.Spectrum
}

// Schedule expands a LoadSpec into the merged, time-ordered arrival
// schedule. Each tenant draws from an independent forked stream keyed by
// its position, so adding a tenant never perturbs the others' arrivals.
// Queries cycle through pool per tenant in arrival order.
func Schedule(spec LoadSpec, pool []*spectrum.Spectrum) []Arrival {
	if len(pool) == 0 {
		return nil
	}
	var out []Arrival
	root := synth.NewRNG(spec.Seed)
	for i, ld := range spec.Loads {
		rng := root.Fork(uint64(i) + 1)
		times := arrivalTimes(rng, ld, spec.HorizonSec)
		for j, at := range times {
			out = append(out, Arrival{AtSec: at, Tenant: ld.Tenant.Name, Spec: pool[(i+j)%len(pool)]})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].AtSec != out[b].AtSec {
			return out[a].AtSec < out[b].AtSec
		}
		return out[a].Tenant < out[b].Tenant
	})
	return out
}

// ExpectedArrivals is the mean length of the spec's schedule, worked out
// from the rates without generating it, so that a caller can refuse a
// schedule too large to hold. A steady or bursty tenant offers RatePerSec ×
// HorizonSec queries. An adversarial tenant offers its mean flood, about
// 2 × RatePerSec queries, once at 0 and then every 2/RatePerSec seconds on
// average, so its count grows with the square of its rate.
func (spec LoadSpec) ExpectedArrivals() float64 {
	n := 0.0
	for _, ld := range spec.Loads {
		if ld.RatePerSec <= 0 || spec.HorizonSec <= 0 {
			continue
		}
		if ld.Profile == ProfileAdversarial {
			flood := (math.Max(1, math.Floor(ld.RatePerSec*4)) + 1) / 2
			n += flood * (1 + ld.RatePerSec*spec.HorizonSec/2)
		} else {
			n += ld.RatePerSec * spec.HorizonSec
		}
	}
	return n
}

// arrivalTimes draws one tenant's arrival instants in [0, horizon).
func arrivalTimes(rng *synth.RNG, ld TenantLoad, horizon float64) []float64 {
	if ld.RatePerSec <= 0 || horizon <= 0 {
		return nil
	}
	var times []float64
	switch ld.Profile {
	case ProfileBursty:
		// Bursts of geometric length (mean 8) at 100× rate spacing,
		// separated by exponential idle gaps sized to keep the overall
		// mean near RatePerSec.
		const meanBurst = 8.0
		t := expGap(rng, ld.RatePerSec/meanBurst)
		for t < horizon {
			n := 1
			for rng.Float64() < 1-1/meanBurst {
				n++
			}
			for k := 0; k < n && t < horizon; k++ {
				times = append(times, t)
				t += expGap(rng, ld.RatePerSec*100)
			}
			t += expGap(rng, ld.RatePerSec/meanBurst)
		}
	case ProfileAdversarial:
		// Floods of 4× the mean inter-flood budget arriving nearly at
		// once (1000× rate spacing), then silence: offered load in the
		// flood window far exceeds any per-second quota or queue bound.
		t := 0.0
		for t < horizon {
			n := 1 + rng.Intn(int(math.Max(1, ld.RatePerSec*4)))
			for k := 0; k < n && t < horizon; k++ {
				times = append(times, t)
				t += expGap(rng, ld.RatePerSec*1000)
			}
			t += 1/ld.RatePerSec + expGap(rng, ld.RatePerSec)
		}
	default: // ProfileSteady
		t := expGap(rng, ld.RatePerSec)
		for t < horizon {
			times = append(times, t)
			t += expGap(rng, ld.RatePerSec)
		}
	}
	return times
}

// expGap draws an exponential inter-arrival gap with the given rate.
func expGap(rng *synth.RNG, rate float64) float64 {
	return -math.Log(1-rng.Float64()) / rate
}

// Rejection records one backpressure rejection during Play.
type Rejection struct {
	AtSec  float64
	Tenant string
	// RetryAfterSec is the typed rejection's hint.
	RetryAfterSec float64
	Err           error
}

// Play submits a schedule to the server in order. Backpressure rejections
// are collected and returned; any fatal error aborts the replay.
func (s *Server) Play(arrivals []Arrival) ([]Rejection, error) {
	var rejs []Rejection
	for _, a := range arrivals {
		err := s.Submit(a.AtSec, a.Tenant, a.Spec)
		if err == nil {
			continue
		}
		if after, ok := IsRetryable(err); ok {
			rejs = append(rejs, Rejection{AtSec: a.AtSec, Tenant: a.Tenant, RetryAfterSec: after, Err: err})
			continue
		}
		return rejs, err
	}
	return rejs, nil
}
