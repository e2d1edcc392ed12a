// Package workload synthesizes the paper's evaluation workloads (§VI):
//
//   - T-Drive-like: GPS trajectories of 10,357 taxis random-walking in the
//     Beijing bounding box, z-ordered into index keys; 36-byte tuples;
//   - Network-like: website-access records keyed by source IP drawn from a
//     heavy-tailed mixture of hot subnets plus background noise; 50-byte
//     tuples;
//   - Normal(σ): keys from a normal distribution with controllable σ, the
//     skewness knob of the adaptive-partitioning experiments (Fig. 12);
//
// plus the query generators that control key-domain selectivity and the
// four temporal shapes (recent 5 s / 60 s / 5 min, historical 5 min) used
// throughout §VI-D.
//
// Generators are deterministic given a seed. Timestamps are logical event
// time: each generator advances an internal clock at a configurable event
// rate, and can inject out-of-order arrivals.
package workload

import (
	"math"
	"math/rand"

	"waterwheel/internal/model"
	"waterwheel/internal/zorder"
)

// Generator produces a deterministic tuple stream.
type Generator interface {
	// Next returns the next tuple.
	Next() model.Tuple
	// KeySpan returns the key range the generator draws from, used to
	// build selectivity-controlled queries.
	KeySpan() model.KeyRange
	// Now returns the generator's current event time.
	Now() model.Timestamp
}

// clock advances event time: rate events per second of event time.
type clock struct {
	t    model.Timestamp
	sub  int
	rate int // events per second
}

func newClock(start model.Timestamp, rate int) clock {
	if rate <= 0 {
		rate = 100_000
	}
	return clock{t: start, rate: rate}
}

// tick returns the next event timestamp (millisecond resolution).
func (c *clock) tick() model.Timestamp {
	c.sub++
	perMilli := c.rate / 1000
	if perMilli < 1 {
		perMilli = 1
	}
	if c.sub >= perMilli {
		c.sub = 0
		c.t++
	}
	return c.t
}

// lateness injects out-of-order arrivals: with probability Frac, a tuple's
// timestamp is pushed back by up to MaxMillis.
type lateness struct {
	Frac      float64
	MaxMillis int64
}

func (l lateness) apply(rng *rand.Rand, t model.Timestamp) model.Timestamp {
	if l.Frac <= 0 || rng.Float64() >= l.Frac {
		return t
	}
	d := model.Timestamp(rng.Int63n(l.MaxMillis + 1))
	if d > t {
		d = t
	}
	return t - d
}

// TDriveConfig tunes the taxi-trajectory generator.
type TDriveConfig struct {
	// Taxis is the fleet size (paper: 10,357).
	Taxis int
	// Bits is the z-order grid resolution per axis (default 16).
	Bits uint
	// EventsPerSecond is the logical arrival rate (default 100,000).
	EventsPerSecond int
	// StartTime is the first event timestamp (default 0).
	StartTime model.Timestamp
	// LateFrac / LateMaxMillis inject out-of-order arrivals.
	LateFrac      float64
	LateMaxMillis int64
	// Seed drives all randomness.
	Seed int64
}

// TDrive emits z-ordered GPS samples: a random taxi takes a random-walk
// step and reports its position. Spatial locality makes the key
// distribution clustered but slowly evolving — the workload character
// Waterwheel's template reuse banks on.
type TDrive struct {
	cfg  TDriveConfig
	rng  *rand.Rand
	grid *zorder.Grid
	lons []float64
	lats []float64
	clk  clock
	late lateness
}

// Beijing bounding box used by the paper's T-Drive preprocessing.
const (
	BeijingMinLon = 115.8
	BeijingMaxLon = 117.1
	BeijingMinLat = 39.6
	BeijingMaxLat = 40.4
)

// NewTDrive creates the generator.
func NewTDrive(cfg TDriveConfig) *TDrive {
	if cfg.Taxis <= 0 {
		cfg.Taxis = 10_357
	}
	if cfg.Bits == 0 {
		cfg.Bits = 16
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &TDrive{
		cfg:  cfg,
		rng:  rng,
		grid: zorder.NewGrid(BeijingMinLon, BeijingMaxLon, BeijingMinLat, BeijingMaxLat, cfg.Bits),
		lons: make([]float64, cfg.Taxis),
		lats: make([]float64, cfg.Taxis),
		clk:  newClock(cfg.StartTime, cfg.EventsPerSecond),
		late: lateness{Frac: cfg.LateFrac, MaxMillis: cfg.LateMaxMillis},
	}
	for i := range g.lons {
		// Taxis start clustered around the city centre (a 2D normal),
		// mirroring real urban density.
		g.lons[i] = clamp(116.4+rng.NormFloat64()*0.15, BeijingMinLon, BeijingMaxLon)
		g.lats[i] = clamp(39.9+rng.NormFloat64()*0.1, BeijingMinLat, BeijingMaxLat)
	}
	return g
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Next implements Generator. The 16-byte payload (taxi id + packed
// coordinates) brings the encoded tuple to the paper's 36 bytes.
func (g *TDrive) Next() model.Tuple {
	i := g.rng.Intn(len(g.lons))
	g.lons[i] = clamp(g.lons[i]+g.rng.NormFloat64()*0.0005, BeijingMinLon, BeijingMaxLon)
	g.lats[i] = clamp(g.lats[i]+g.rng.NormFloat64()*0.0005, BeijingMinLat, BeijingMaxLat)
	key := model.Key(g.grid.Key(g.lons[i], g.lats[i]))
	t := g.late.apply(g.rng, g.clk.tick())
	payload := make([]byte, 16)
	putU32(payload[0:], uint32(i))
	putU32(payload[4:], math.Float32bits(float32(g.lons[i])))
	putU32(payload[8:], math.Float32bits(float32(g.lats[i])))
	// trailing 4 bytes stay zero (padding)
	return model.Tuple{Key: key, Time: t, Payload: payload}
}

// KeySpan implements Generator: the full z-code range of the grid.
func (g *TDrive) KeySpan() model.KeyRange {
	cells := uint64(1) << g.cfg.Bits
	return model.KeyRange{Lo: 0, Hi: model.Key(cells*cells - 1)}
}

// Now implements Generator.
func (g *TDrive) Now() model.Timestamp { return g.clk.t }

// NetworkConfig tunes the website-access generator.
type NetworkConfig struct {
	// HotSubnets is the number of heavy /16 source subnets (default 64).
	HotSubnets int
	// HotFrac is the probability a record comes from a hot subnet
	// (default 0.8); the rest is uniform background.
	HotFrac float64
	// EventsPerSecond is the logical arrival rate (default 100,000).
	EventsPerSecond int
	// StartTime is the first event timestamp.
	StartTime model.Timestamp
	// LateFrac / LateMaxMillis inject out-of-order arrivals.
	LateFrac      float64
	LateMaxMillis int64
	// Seed drives all randomness.
	Seed int64
}

// Network emits access records keyed by source IP. Hot subnets get
// Zipf-like weights, so the key distribution has the "many hot subnets
// plus long tail" character of telecom traces. The source IPv4 address is
// spread over the key domain by placing it in the high 32 bits.
type Network struct {
	cfg     NetworkConfig
	rng     *rand.Rand
	subnets []uint32 // /16 prefixes (high 16 bits set)
	weights []float64
	totalW  float64
	clk     clock
	late    lateness
}

// NewNetwork creates the generator.
func NewNetwork(cfg NetworkConfig) *Network {
	if cfg.HotSubnets <= 0 {
		cfg.HotSubnets = 64
	}
	if cfg.HotFrac <= 0 || cfg.HotFrac >= 1 {
		cfg.HotFrac = 0.8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Network{
		cfg:  cfg,
		rng:  rng,
		clk:  newClock(cfg.StartTime, cfg.EventsPerSecond),
		late: lateness{Frac: cfg.LateFrac, MaxMillis: cfg.LateMaxMillis},
	}
	for i := 0; i < cfg.HotSubnets; i++ {
		g.subnets = append(g.subnets, rng.Uint32()&0xFFFF0000)
		w := 1.0 / float64(i+1) // Zipf(1)
		g.weights = append(g.weights, w)
		g.totalW += w
	}
	return g
}

// Next implements Generator. The 30-byte payload (user id, destination
// IP, URL hash bytes) brings the encoded tuple to the paper's 50 bytes.
func (g *Network) Next() model.Tuple {
	var ip uint32
	if g.rng.Float64() < g.cfg.HotFrac {
		x := g.rng.Float64() * g.totalW
		idx := 0
		for x > g.weights[idx] && idx < len(g.weights)-1 {
			x -= g.weights[idx]
			idx++
		}
		ip = g.subnets[idx] | uint32(g.rng.Intn(1<<16))
	} else {
		ip = g.rng.Uint32()
	}
	key := model.Key(uint64(ip) << 32)
	t := g.late.apply(g.rng, g.clk.tick())
	payload := make([]byte, 30)
	putU64(payload[0:], g.rng.Uint64())  // user id
	putU32(payload[8:], g.rng.Uint32())  // destination IP
	putU64(payload[12:], g.rng.Uint64()) // URL hash
	putU64(payload[20:], g.rng.Uint64())
	// remaining 2 bytes stay zero (padding)
	return model.Tuple{Key: key, Time: t, Payload: payload}
}

// KeySpan implements Generator.
func (g *Network) KeySpan() model.KeyRange { return model.FullKeyRange() }

// Now implements Generator.
func (g *Network) Now() model.Timestamp { return g.clk.t }

// NormalConfig tunes the normal-key generator of the adaptive-partitioning
// experiments (Fig. 12): keys ~ N(center, σ), 30-byte tuples.
type NormalConfig struct {
	// Sigma is the standard deviation (paper sweeps 10..5000).
	Sigma float64
	// Center is the distribution mean in the key domain (default 2^62).
	Center model.Key
	// DriftPerSecond moves the center over time, exercising template
	// update and repartitioning (default 0).
	DriftPerSecond float64
	// EventsPerSecond is the logical arrival rate (default 100,000).
	EventsPerSecond int
	StartTime       model.Timestamp
	Seed            int64
}

// Normal emits tuples with normally distributed keys. The perturbation is
// applied in integer arithmetic: at centers like 2^62 a float64 sum would
// round small σ deviations away entirely (the ULP at 2^62 is 1024).
type Normal struct {
	cfg   NormalConfig
	rng   *rand.Rand
	clk   clock
	base  model.Key
	drift float64 // accumulated center drift in keys
}

// NewNormal creates the generator.
func NewNormal(cfg NormalConfig) *Normal {
	if cfg.Sigma <= 0 {
		cfg.Sigma = 1000
	}
	if cfg.Center == 0 {
		cfg.Center = 1 << 62
	}
	return &Normal{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		clk:  newClock(cfg.StartTime, cfg.EventsPerSecond),
		base: cfg.Center,
	}
}

// addClamped offsets a key by a signed delta, saturating at the domain
// edges.
func addClamped(k model.Key, delta int64) model.Key {
	if delta >= 0 {
		if model.MaxKey-k < model.Key(delta) {
			return model.MaxKey
		}
		return k + model.Key(delta)
	}
	d := model.Key(-delta)
	if k < d {
		return 0
	}
	return k - d
}

// Next implements Generator. The 10-byte payload brings the encoded tuple
// to the paper's 30 bytes.
func (g *Normal) Next() model.Tuple {
	prev := g.clk.t
	t := g.clk.tick()
	if g.cfg.DriftPerSecond != 0 && t != prev {
		g.drift += g.cfg.DriftPerSecond / 1000
	}
	delta := int64(math.Round(g.rng.NormFloat64()*g.cfg.Sigma + g.drift))
	payload := make([]byte, 10)
	putU64(payload, g.rng.Uint64())
	return model.Tuple{Key: addClamped(g.base, delta), Time: t, Payload: payload}
}

// KeySpan implements Generator: ±4σ around the current (drifted) center.
func (g *Normal) KeySpan() model.KeyRange {
	spread := int64(math.Round(4 * g.cfg.Sigma))
	center := addClamped(g.base, int64(math.Round(g.drift)))
	return model.KeyRange{
		Lo: addClamped(center, -spread),
		Hi: addClamped(center, spread),
	}
}

// Now implements Generator.
func (g *Normal) Now() model.Timestamp { return g.clk.t }

// --- query generation ---

// QueryGen builds selectivity-controlled queries over a generator's key
// span and event clock.
type QueryGen struct {
	rng  *rand.Rand
	span model.KeyRange
}

// NewQueryGen creates a query generator over the given key span.
func NewQueryGen(span model.KeyRange, seed int64) *QueryGen {
	return &QueryGen{rng: rand.New(rand.NewSource(seed)), span: span}
}

// KeyRange draws a random key interval covering the given fraction of the
// span (the paper's "selectivity of key domain": 0.01, 0.05, 0.1, …).
func (q *QueryGen) KeyRange(selectivity float64) model.KeyRange {
	if selectivity >= 1 {
		return q.span
	}
	if selectivity <= 0 {
		selectivity = 0.01
	}
	span := float64(q.span.Width())
	width := span * selectivity
	if width < 1 {
		width = 1
	}
	maxStart := span - width
	start := float64(q.span.Lo) + q.rng.Float64()*maxStart
	return model.KeyRange{
		Lo: model.Key(start),
		Hi: model.Key(start + width - 1),
	}
}

// Recent returns the paper's "recent D" window ending at now.
func Recent(now model.Timestamp, durMillis int64) model.TimeRange {
	lo := now - model.Timestamp(durMillis)
	if lo < 0 {
		lo = 0
	}
	return model.TimeRange{Lo: lo, Hi: now}
}

// Historical draws a random window of the given duration between start
// and now (the paper's "historic 5 minutes": randomly chosen between
// system start time and query issue time).
func (q *QueryGen) Historical(start, now model.Timestamp, durMillis int64) model.TimeRange {
	span := int64(now-start) - durMillis
	if span <= 0 {
		return Recent(now, durMillis)
	}
	lo := int64(start) + q.rng.Int63n(span)
	return model.TimeRange{Lo: model.Timestamp(lo), Hi: model.Timestamp(lo + durMillis)}
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v>>32))
	putU32(b[4:], uint32(v))
}
