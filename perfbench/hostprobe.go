package main

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The guest this benchmark runs on shares its host with other guests.
// Over minutes the same work runs at full speed or at about half of it,
// in CPU time as much as in wall time, while the stolen time the guest
// sees stays at a few percent: a whole run of any workload lands in one
// state or the other, so ten runs of the same code spread by half their
// median. A host-speed probe is a fixed piece of the benchmark's own
// work, of the kind a workload spends its time on, that the benchmark
// times between the workload's operations. Dividing a run's rates by
// the probe's speed, against the speed the probe had on the reference
// host, reports them at the reference host's speed. The probes use only
// the standard library, so no change to the repository moves them.

// probeProcs is how many goroutines a probe runs its work on at once:
// one per CPU of the reference host, as the workloads use both.
const probeProcs = 2

// probeReps is how many probes run back to back before each set-up and
// before each cold-profiles round.
const probeReps = 5

// speedProbe is one kind of probe work and its timing on the reference
// host: the 2-CPU guest the README's reference figures come from, as
// the probe ran there between a workload's operations.
type speedProbe struct {
	name    string
	refWall float64 // seconds one probe takes on the reference host
	refCPU  float64 // CPU-seconds one probe uses on the reference host
	work    []func() error
	reset   func() // if set, runs before each probe, while no work runs
	close   []func() error
	// ownCPU: the work runs entirely on its goroutines, so a probe's CPU
	// is theirs alone, not the process's (which also holds the collector
	// finishing the workload's last cycle and the daemon's goroutines).
	ownCPU bool
}

// probeLog is every timing of a probe taken for one figure.
type probeLog struct {
	walls, cpus []float64
}

// speed is the host's speed against the reference host, by the median
// of the logged probes: 1 there, 0.5 when the probe took twice as long.
// Single probes are short and spread by a tenth or more, beside garbage
// collection and the daemon's own goroutines; the median of a run's
// probes does not.
func (p *speedProbe) speed(l *probeLog) (wall, cpu float64) {
	return p.refWall / median(l.walls), p.refCPU / median(l.cpus)
}

// measure runs the probe times times, each its work on its goroutines at
// once, and logs each timing.
func (p *speedProbe) measure(times int, l *probeLog) error {
	errs := make([]error, len(p.work))
	own := make([]float64, len(p.work))
	for k := 0; k < times; k++ {
		if p.reset != nil {
			p.reset()
		}
		c0, t0 := cpuSeconds(), time.Now()
		var wg sync.WaitGroup
		for i, w := range p.work {
			wg.Add(1)
			go func(i int, w func() error) {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				t := threadCPUSeconds()
				errs[i] = w()
				own[i] = threadCPUSeconds() - t
			}(i, w)
		}
		wg.Wait()
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
		if p.ownCPU {
			cpu = 0
			for _, c := range own {
				cpu += c
			}
		}
		l.walls = append(l.walls, wall)
		l.cpus = append(l.cpus, cpu)
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

// threadCPUSeconds is the calling thread's CPU time so far.
func threadCPUSeconds() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}

// stop releases what the probe holds: its frames, its server.
func (p *speedProbe) stop() error {
	var errs []error
	for _, c := range p.close {
		errs = append(errs, c())
	}
	return errors.Join(errs...)
}

// probeSide is the frame size of the image probes, the default model's
// native input.
const probeSide = 608

// imagePasses is how many frame passes one image probe makes.
const imagePasses = 4

// imageProbe is detection-like work: a textured frame, a separable box
// blur, a threshold and a connected-component count, on float32 planes
// the size of a detector input. cold-profiles spends its time there.
// Its goroutines take passes from a shared queue, as detection fans
// frames out to every CPU: when the host stalls one CPU, the other takes
// more of the work, and the probe slows as much as detection does, not
// as much as its slowest goroutine.
func imageProbe() (*speedProbe, error) {
	p := &speedProbe{name: "image", refWall: 0.0185, refCPU: 0.0320, ownCPU: true}
	passes := make(chan struct{}, imagePasses)
	p.reset = func() {
		for i := 0; i < imagePasses; i++ {
			passes <- struct{}{}
		}
	}
	for i := 0; i < probeProcs; i++ {
		f, err := newProbeFrame()
		if err != nil {
			p.stop()
			return nil, err
		}
		p.close = append(p.close, f.free)
		p.work = append(p.work, func() error {
			for {
				select {
				case <-passes:
					if err := f.detect(1); err != nil {
						return err
					}
				default:
					return nil
				}
			}
		})
	}
	return p, nil
}

// codecFrames is how many frames one codec probe sends down its pipeline.
const codecFrames = 2

// codecProbe is stream-like work, in a two-stage pipeline like a stream
// job's camera and receiver: one goroutine renders detector-input frames
// and flate-compresses their byte planes, as codec does; the other
// decompresses each, blurs it and counts its components. A stall on
// either CPU holds up both stages, as it holds up a stream job.
// stream-ingest spends its time there.
func codecProbe() (*speedProbe, error) {
	p := &speedProbe{name: "codec", refWall: 0.0600, refCPU: 0.0700, ownCPU: true}
	var fs [2]*probeFrame
	for i := range fs {
		f, err := newProbeFrame()
		if err != nil {
			p.stop()
			return nil, err
		}
		p.close = append(p.close, f.free)
		fs[i] = f
	}
	camera, receiver := fs[0], fs[1]
	// Two buffers circulate: the camera fills a free one, the receiver
	// hands it back once decoded. A nil frame ends a probe early.
	free, sent := make(chan *bytes.Buffer, 2), make(chan *bytes.Buffer, 2)
	free <- new(bytes.Buffer)
	free <- new(bytes.Buffer)
	p.work = []func() error{
		func() error {
			for k := 0; k < codecFrames; k++ {
				b := <-free
				err := camera.detect(1)
				if err == nil {
					err = camera.encode(b)
				}
				if err != nil {
					free <- b
					sent <- nil
					return err
				}
				sent <- b
			}
			return nil
		},
		func() error {
			for k := 0; k < codecFrames; k++ {
				b := <-sent
				if b == nil {
					return nil
				}
				err := receiver.decode(b)
				free <- b
				if err == nil {
					err = receiver.blurCount()
				}
				if err != nil {
					// Drain the camera so it does not block.
					for k++; k < codecFrames; k++ {
						if b := <-sent; b == nil {
							break
						} else {
							free <- b
						}
					}
					return err
				}
			}
			return nil
		},
	}
	return p, nil
}

// loopbackProbe is serving-like work: keep-alive HTTP GETs of a
// profile-sized body over loopback, from one client per goroutine, to a
// standard-library server. hot-serving spends its time there.
func loopbackProbe() (*speedProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	body := bytes.Repeat([]byte("0123456789abcdef"), 40)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String() + "/"
	const gets = 200
	var clients []*http.Client
	p := &speedProbe{name: "loopback", refWall: 0.0385, refCPU: 0.0530}
	for i := 0; i < probeProcs; i++ {
		c := newClient()
		clients = append(clients, c)
		p.work = append(p.work, func() error {
			for k := 0; k < gets; k++ {
				code, b, _, err := do(context.Background(), c, http.MethodGet, url, nil)
				if err != nil {
					return err
				}
				if code != http.StatusOK || len(b) != len(body) {
					return fmt.Errorf("loopback probe: status %d, %d bytes", code, len(b))
				}
			}
			return nil
		})
	}
	p.close = append(p.close, func() error {
		for _, c := range clients {
			closeClient(c)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	})
	return p, nil
}

// probeFrame holds one goroutine's probe buffers. The planes live in
// one anonymous mapping outside the Go heap, so the probes neither
// allocate in their passes nor add to the live heap that paces the
// collector of the program under test.
type probeFrame struct {
	mem      []byte
	img, tmp []float32
	plane    []byte
	labels   []int32
	seed     uint64
	fw       *flate.Writer
	fr       io.ReadCloser
}

func newProbeFrame() (*probeFrame, error) {
	n := probeSide * probeSide
	mem, err := syscall.Mmap(-1, 0, 13*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe frame: %w", err)
	}
	fw, _ := flate.NewWriter(io.Discard, flate.DefaultCompression)
	return &probeFrame{
		mem:    mem,
		img:    unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), n),
		tmp:    unsafe.Slice((*float32)(unsafe.Pointer(&mem[4*n])), n),
		labels: unsafe.Slice((*int32)(unsafe.Pointer(&mem[8*n])), n),
		plane:  mem[12*n : 13*n],
		fw:     fw,
	}, nil
}

func (f *probeFrame) free() error {
	f.img, f.tmp, f.labels, f.plane = nil, nil, nil, nil
	return syscall.Munmap(f.mem)
}

// probeHash is a fixed pixel hash (splitmix64's finalizer).
func probeHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// detect runs passes of texture, blur, threshold and component count.
// The frame's texture depends only on the pass number, so the counts
// repeat; a count of zero means the passes did not run as written.
func (f *probeFrame) detect(passes int) error {
	for pass := 0; pass < passes; pass++ {
		f.seed++
		s := f.seed % 4
		for i := range f.img {
			f.img[i] = float32(probeHash(s<<40|uint64(i))&0xff) / 255
		}
		if err := f.blurCount(); err != nil {
			return err
		}
	}
	return nil
}

// blurCount box-blurs img both ways, thresholds it into plane and counts
// the components above the threshold.
func (f *probeFrame) blurCount() error {
	const r = 3 // blur radius
	w := probeSide
	for y := 0; y < w; y++ { // horizontal running sum
		row, out := f.img[y*w:(y+1)*w], f.tmp[y*w:(y+1)*w]
		var acc float64
		for x := 0; x < w+r; x++ {
			if x < w {
				acc += float64(row[x])
			}
			if x-2*r-1 >= 0 {
				acc -= float64(row[x-2*r-1])
			}
			if x-r >= 0 {
				out[x-r] = float32(acc / (2*r + 1))
			}
		}
	}
	for x := 0; x < w; x++ { // vertical running sum
		var acc float64
		for y := 0; y < w+r; y++ {
			if y < w {
				acc += float64(f.tmp[y*w+x])
			}
			if y-2*r-1 >= 0 {
				acc -= float64(f.tmp[(y-2*r-1)*w+x])
			}
			if y-r >= 0 {
				f.img[(y-r)*w+x] = float32(acc / (2*r + 1))
			}
		}
	}
	for i, v := range f.img {
		f.plane[i] = byte(v * 255)
	}
	if components(f.plane, f.labels, w, 136) == 0 {
		return errors.New("probe frame: no components")
	}
	return nil
}

// components counts the 4-connected components of pixels above level,
// with union-find over labels.
func components(plane []byte, labels []int32, w int, level byte) int {
	find := func(i int32) int32 {
		for labels[i] != i {
			labels[i] = labels[labels[i]]
			i = labels[i]
		}
		return i
	}
	for i, v := range plane {
		labels[i] = -1
		if v <= level {
			continue
		}
		labels[i] = int32(i)
		if i%w > 0 && labels[i-1] >= 0 {
			labels[i] = find(int32(i - 1))
		}
		if i >= w && labels[i-w] >= 0 {
			a, b := find(int32(i-w)), labels[i]
			if a != b {
				labels[b] = a
				labels[i] = a
			}
		}
	}
	n := 0
	for i, l := range labels {
		if l == int32(i) {
			n++
		}
	}
	return n
}

// encode flate-compresses the frame's byte plane into b.
func (f *probeFrame) encode(b *bytes.Buffer) error {
	b.Reset()
	f.fw.Reset(b)
	if _, err := f.fw.Write(f.plane); err != nil {
		return err
	}
	return f.fw.Close()
}

// decode decompresses b into the frame's byte plane and float frame.
func (f *probeFrame) decode(b *bytes.Buffer) error {
	if f.fr == nil {
		f.fr = flate.NewReader(b)
	} else if err := f.fr.(flate.Resetter).Reset(b, nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(f.fr, f.plane); err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	if n, _ := f.fr.Read(f.plane[:1]); n != 0 {
		return errors.New("codec probe: frame longer than a frame")
	}
	for i, v := range f.plane {
		f.img[i] = float32(v) / 255
	}
	return nil
}
