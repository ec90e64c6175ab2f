package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The reference host is a small shared virtual machine whose speed
// moves by a quarter and more for minutes at a time with no load of its
// own: CPU time per solve, not only wall time, rises and falls with it.
// No window the driver's time limit allows is long enough to average
// such a phase out, so the timed metrics are not reported in raw host
// time. A fixed calibration kernel is timed throughout every set-up and
// every measured window, and each time is scaled to what it would have
// been at the speed at which that kernel takes calibRefUS: a metric in
// "ms" reads as milliseconds of a host at the reference speed. The raw
// figures and the speed itself are reported beside them (raw.*,
// host.speed), never gated.

const (
	// calibN is the side of the kernel's dense matrix: 256² float64 is
	// 512 KiB, resident in L2 like the K256 coupling matrices the
	// engines walk.
	calibN = 256
	// calibEvery is the sampling period. The kernel takes about 0.3 ms,
	// so sampling costs one core 1.5 %.
	calibEvery = 20 * time.Millisecond
	// calibRefUS is the kernel's time at the reference speed: its
	// median on the reference host in a fast phase.
	calibRefUS = 330.0
	// sliceLen is the resolution at which the speed is followed inside a
	// window; a slice holds about fifty kernel timings.
	sliceLen = time.Second
)

var calibMat, calibX, calibY = func() ([]float64, []float64, []float64) {
	m := make([]float64, calibN*calibN)
	h := uint64(1)
	for i := range m {
		h = splitmix(h)
		m[i] = float64(int64(h>>40)-1<<23) / (1 << 23) // uniform in [-1, 1)
	}
	return m, make([]float64, calibN), make([]float64, calibN)
}()

var (
	calibText [32]byte
	calibSink float64
)

// calibKernel is the fixed work whose duration measures the host's
// speed, half of it the kind of code the engines are made of and half
// the kind the service plane is: three dependent dense mat-vecs with a
// clamp between them, then 900 floats formatted and parsed back. Slow
// phases of the host do not slow the two kinds alike, and the
// workloads are mixtures of both.
func calibKernel() {
	x, y := calibX, calibY
	for i := range x {
		x[i] = 1
	}
	for r := 0; r < 3; r++ {
		for i := 0; i < calibN; i++ {
			row := calibMat[i*calibN : (i+1)*calibN]
			s := 0.0
			for j, v := range row {
				s += v * x[j]
			}
			y[i] = s
		}
		x, y = y, x
		for i := range x {
			if x[i] > 1 || x[i] < -1 {
				x[i] *= 0.5
			}
		}
	}
	v, t := 0.123456789, x[0]
	for i := 0; i < 900; i++ {
		b := strconv.AppendFloat(calibText[:0], v, 'g', -1, 64)
		f, _ := strconv.ParseFloat(string(b), 64)
		t += f
		v = v*1.0000001 + 1e-9
	}
	calibSink += t
}

// hostSlice is one stretch of a sampled interval: its bounds, the CPU
// time the watched processes used in it, and the host's speed in it
// (calibRefUS ÷ the median kernel time; below 1 on a slow host).
type hostSlice struct {
	from, to time.Time
	cpuMS    float64
	speed    float64
}

// sampler times the calibration kernel every calibEvery on a goroutine
// of the bench process and cuts the interval into slices.
type sampler struct {
	pids    []int
	err     error // the first failure to read the pids' CPU time
	steal0  float64
	quit    chan struct{}
	stopped chan []hostSlice
}

// startSampler begins sampling; pids are the processes whose CPU time
// each slice records (none: no CPU time is read).
func startSampler(pids []int) *sampler {
	s := &sampler{pids: pids, steal0: stealMS(), quit: make(chan struct{}), stopped: make(chan []hostSlice)}
	go s.loop()
	return s
}

func (s *sampler) cpu() float64 {
	if len(s.pids) == 0 {
		return 0
	}
	ms, err := cpuMS(s.pids)
	if err != nil && s.err == nil {
		s.err = err
	}
	return ms
}

func (s *sampler) loop() {
	var slices []hostSlice
	var us []float64
	from, cpu0 := time.Now(), s.cpu()
	cut := func(now time.Time) {
		cpu1 := s.cpu()
		sl := hostSlice{from: from, to: now, cpuMS: cpu1 - cpu0}
		if len(us) > 0 {
			sl.speed = calibRefUS / median(us)
		}
		slices = append(slices, sl)
		from, cpu0, us = now, cpu1, us[:0]
	}
	tick := time.NewTicker(calibEvery)
	defer tick.Stop()
	for {
		// The first timing is taken at once, so the first slice of even
		// the shortest interval has a speed.
		t0 := time.Now()
		calibKernel()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		if now := time.Now(); now.Sub(from) >= sliceLen {
			cut(now)
		}
		select {
		case <-s.quit:
			cut(time.Now())
			s.stopped <- slices
			return
		case <-tick.C:
		}
	}
}

// stop ends sampling and returns the interval: its slices, each with a
// speed (a last slice too short to hold a kernel timing takes the one
// before's), and the share of the host's CPU time the hypervisor gave
// to someone else.
func (s *sampler) stop() (hostInterval, error) {
	close(s.quit)
	iv := hostInterval{slices: <-s.stopped}
	for i := 1; i < len(iv.slices); i++ {
		if iv.slices[i].speed == 0 {
			iv.slices[i].speed = iv.slices[i-1].speed
		}
	}
	if wall := iv.seconds(); wall > 0 {
		iv.stealFrac = (stealMS() - s.steal0) / 1e3 / (wall * float64(runtime.NumCPU()))
	}
	return iv, s.err
}

// hostInterval is a sampled interval.
type hostInterval struct {
	slices    []hostSlice
	stealFrac float64
}

// seconds is the interval's raw length.
func (iv hostInterval) seconds() float64 {
	t := 0.0
	for _, sl := range iv.slices {
		t += sl.to.Sub(sl.from).Seconds()
	}
	return t
}

// normSeconds is the interval's length in seconds at the reference
// speed: each slice counts for its length times the host's speed in it.
func (iv hostInterval) normSeconds() float64 {
	t := 0.0
	for _, sl := range iv.slices {
		t += sl.to.Sub(sl.from).Seconds() * sl.speed
	}
	return t
}

// cpuMS is the watched processes' CPU time over the interval, raw and
// at the reference speed.
func (iv hostInterval) cpuMS() (raw, norm float64) {
	for _, sl := range iv.slices {
		raw += sl.cpuMS
		norm += sl.cpuMS * sl.speed
	}
	return raw, norm
}

// speedAt is the host's speed at time t (the nearest slice's, outside
// the interval).
func (iv hostInterval) speedAt(t time.Time) float64 {
	i := sort.Search(len(iv.slices), func(i int) bool { return iv.slices[i].to.After(t) })
	if i == len(iv.slices) {
		i--
	}
	return iv.slices[i].speed
}

// stealMS reads the steal time of /proc/stat's aggregate cpu line
// (0 where the kernel reports none).
func stealMS() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v * 1000 / clockTick
}
