package sim

// Uniform draws a time uniformly from [lo, hi]. If hi <= lo it returns lo.
func (e *Engine) Uniform(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(e.rng.Int63n(int64(hi-lo)+1))
}

// Jitter returns base perturbed by a uniform relative jitter of ±frac,
// e.g. Jitter(100µs, 0.1) ∈ [90µs, 110µs]. frac <= 0 returns base.
func (e *Engine) Jitter(base Time, frac float64) Time {
	if frac <= 0 || base == 0 {
		return base
	}
	span := float64(base) * frac
	d := (e.src.Float64()*2 - 1) * span
	v := Time(float64(base) + d)
	if v < 0 {
		v = 0
	}
	return v
}

// Normal draws from a normal distribution with the given mean and standard
// deviation, truncated at zero.
func (e *Engine) Normal(mean, stddev Time) Time {
	v := Time(e.rng.NormFloat64()*float64(stddev) + float64(mean))
	if v < 0 {
		v = 0
	}
	return v
}

// Bernoulli reports true with probability p.
func (e *Engine) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return e.src.Float64() < p
}
