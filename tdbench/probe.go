package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark runs on is shared: how fast its cores run
// drifts by tens of percent over minutes with the load of other tenants,
// and every timing of the server drifts with it. The speed probe measures
// that drift while the run goes on. A fixed task built only from the Go
// standard library (decode a diagram-like PNG, hash its pixels) runs every
// probeEvery on one thread pinned to each core the process may use, timed
// by that thread's CPU time, so waiting for a core does not count and only
// the speed of the core does. No change to the program can move the
// task's cost. The end-to-end timings are then reported at reference
// speed: as they would read on a machine whose cores run the task in
// probeRef.
//
// The sampler runs in a child process (this command with -probe), so its
// allocations and collections are those of an ordinary Go program, like
// the server's, while the load generator runs with its collector off.
const (
	probeEvery = 100 * time.Millisecond // per core
	// probeRef is the task's CPU time at reference speed, about its median
	// on a 2.1 GHz Xeon vCPU.
	probeRef = time.Millisecond
)

// speedProbe collects the samples of a sampler process until closed.
type speedProbe struct {
	cmd   *exec.Cmd
	stdin io.Closer
	done  chan struct{}

	mu      sync.Mutex
	samples []probeSample
}

type probeSample struct {
	at   time.Time     // when the sample ended
	core int           // the core it ran on; -1 when it could not be pinned
	cpu  time.Duration // the task's thread CPU time
}

// startProbe starts the sampler process. It exits when its standard
// input closes: at close, or when this process ends.
func startProbe() (*speedProbe, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-probe")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &speedProbe{cmd: cmd, stdin: stdin, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.read(out)
	}()
	return p, nil
}

// read records the sample lines a sampler writes.
func (p *speedProbe) read(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var at, cpu int64
		var core int
		if _, err := fmt.Sscan(sc.Text(), &at, &core, &cpu); err == nil {
			p.record(probeSample{at: time.Unix(0, at), core: core, cpu: time.Duration(cpu)})
		}
	}
}

func (p *speedProbe) record(s probeSample) {
	p.mu.Lock()
	p.samples = append(p.samples, s)
	p.mu.Unlock()
}

// close stops the sampler process and waits for it to end.
func (p *speedProbe) close() error {
	p.stdin.Close()
	<-p.done
	return p.cmd.Wait()
}

// speed is the machine's speed over [from, to] relative to the reference:
// for each core, probeRef over the median task time of the samples taken
// on it then, averaged over the cores, as the server's work spreads over
// all of them. It is below 1 on a slower machine. With no sample in the
// range it uses every sample so far; with none at all it reports 1. n is
// the samples used.
func (p *speedProbe) speed(from, to time.Time) (s float64, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	in := map[int][]time.Duration{}
	for _, x := range p.samples {
		if !x.at.Before(from) && !x.at.After(to) {
			in[x.core] = append(in[x.core], x.cpu)
			n++
		}
	}
	if n == 0 {
		for _, x := range p.samples {
			in[x.core] = append(in[x.core], x.cpu)
			n++
		}
	}
	if n == 0 {
		return 1, 0
	}
	for _, ds := range in {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		mid := ds[len(ds)/2]
		if len(ds)%2 == 0 {
			mid = (ds[len(ds)/2-1] + mid) / 2
		}
		s += float64(probeRef) / float64(max(mid, 1))
	}
	return s / float64(len(in)), n
}

// runProbe is the sampler: one thread pinned to each allowed core runs the
// task every probeEvery and writes "unix-ns core cpu-ns" lines to w, until
// stop closes.
func runProbe(w io.Writer, stop <-chan struct{}) {
	cores := allowedCores()
	if len(cores) == 0 {
		cores = []int{-1}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, core := range cores {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			// The thread stays locked to the end, so the runtime discards it
			// with its pinned affinity rather than run other goroutines on it.
			runtime.LockOSThread()
			if core >= 0 && pinThread(core) != nil {
				core = -1
			}
			task := newProbeTask()
			tick := time.NewTicker(probeEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				t0 := threadCPU()
				task.run()
				d := threadCPU() - t0
				mu.Lock()
				fmt.Fprintf(w, "%d %d %d\n", time.Now().UnixNano(), core, d)
				mu.Unlock()
			}
		}(core)
	}
	wg.Wait()
}

// probeMain is the -probe mode: sample until standard input closes.
func probeMain() {
	stop := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(stop)
	}()
	runProbe(os.Stdout, stop)
}

// allowedCores lists the cores the process may run on, or nil when the
// affinity mask cannot be read.
func allowedCores() []int {
	var mask [16]uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil
	}
	var cores []int
	for i := range len(mask) * 64 {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cores = append(cores, i)
		}
	}
	return cores
}

// pinThread binds the calling thread to one core.
func pinThread(core int) error {
	var mask [16]uint64
	mask[core/64] = 1 << (core % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return errno
	}
	return nil
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeTask decodes a fixed PNG of a diagram-like raster and hashes its
// pixels: the kind of work the server's decode, detection and store steps
// do, allocating a fresh image each time as a decode does.
type probeTask struct {
	png  []byte
	sink byte
}

// Probe raster size and hash passes, sized so the task takes about
// probeRef.
const (
	probeW, probeH = 600, 300
	probeHashes    = 3
)

func newProbeTask() *probeTask {
	img := image.NewGray(image.Rect(0, 0, probeW, probeH))
	for y := 0; y < probeH; y++ {
		for x := 0; x < probeW; x++ {
			v := uint8(255)
			if (x/7+y/5)%9 == 0 || y%50 == 0 {
				v = 0
			}
			img.SetGray(x, y, color.Gray{Y: v})
		}
	}
	var buf bytes.Buffer
	png.Encode(&buf, img)
	return &probeTask{png: buf.Bytes()}
}

func (t *probeTask) run() {
	m, err := png.Decode(bytes.NewReader(t.png))
	if err != nil {
		panic(err) // a fixed, valid PNG
	}
	pix := m.(*image.Gray).Pix
	for i := 0; i < probeHashes; i++ {
		sum := sha256.Sum256(pix)
		t.sink ^= sum[0]
	}
}
