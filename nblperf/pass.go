package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// pass is the outcome of one closed-loop pass over a job stream.
//
// Times are corrected for hypervisor steal: on a shared virtual
// machine the host deschedules the vCPUs for a share of the time they
// have work, and that share swings from a few percent to nearly half
// between runs. The program's CPU time does not include it, but its
// latencies do. The window is scaled by 1 − s, where s is the stolen
// share of the vCPU time demanded over the whole pass; each job's
// latency is scaled as unstolen describes.
type pass struct {
	window time.Duration
	// host is the machine's CPU time accounting over the window.
	host ticks
	// ms holds the steal-corrected latencies of correctly answered jobs.
	ms []float64
	// failed counts errors, refusals and required verdicts left
	// UNKNOWN; wrong counts answers that contradict the reference.
	failed, wrong int
	// decided counts SAT/UNSAT answers.
	decided  int
	firstErr error
	// answered lists the correctly answered jobs of a traced pass, for
	// observation once the pass is over.
	answered []answer
}

// answer is a correctly answered job of a traced pass: its index in
// the pass, the reply, and its raw wall-clock latency.
type answer struct {
	i      int
	r      reply
	wallUS float64
}

func (p *pass) attempted() int { return len(p.ms) + p.failed + p.wrong }

// steal is the stolen share of the vCPU time demanded in the window.
func (p *pass) steal() float64 { return p.host.stealShare() }

// seconds is the steal-corrected length of the window.
func (p *pass) seconds() float64 { return p.window.Seconds() * (1 - p.steal()) }

// rate is correctly answered jobs per steal-corrected second.
func (p *pass) rate() float64 { return ratio(float64(len(p.ms)), p.seconds()) }

func (p *pass) result(wrongBefore int) result {
	return result{
		Correct:   p.wrong+wrongBefore == 0,
		Attempted: p.attempted(),
		Failed:    p.failed + p.wrong,
	}
}

func (p *pass) log(name string) {
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "nblperf: %s: %d failed, %d wrong of %d; first: %v\n",
			name, p.failed, p.wrong, p.attempted(), p.firstErr)
	}
}

func (p *pass) add(lat float64, definitive bool, err error) {
	switch {
	case err == nil:
		p.ms = append(p.ms, lat)
	case errors.Is(err, errWrong):
		p.wrong++
	default:
		p.failed++
	}
	if err == nil && definitive {
		p.decided++
	}
	if err != nil && p.firstErr == nil {
		p.firstErr = err
	}
}

// merge appends pass q, run right after p on the same surface, to p.
// The windows add up; q's answered list is not carried over.
func (p *pass) merge(q *pass) {
	p.window += q.window
	p.host = p.host.plus(q.host)
	p.ms = append(p.ms, q.ms...)
	p.failed += q.failed
	p.wrong += q.wrong
	p.decided += q.decided
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// runPass sends jobs 0..limit-1 of a stream from clients closed-loop
// goroutines: each sends its next job only once its previous one is
// answered. It stops claiming jobs early once maxSeconds of wall time
// have passed (when positive), and returns when every claimed job is
// answered. Job generation precedes the latency clock; the check of
// the answer follows it. With tl non-nil the pass is traced: the
// surface records what it can time inside its calls, and the pass
// keeps its answered jobs for observation.
func runPass(ctx context.Context, s surface, jobs func(int) job, clients, limit int, maxSeconds float64, tl *tally) *pass {
	type outcome struct {
		i          int
		wall       time.Duration
		host       ticks
		definitive bool
		r          reply // traced passes only
		err        error
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	before := hostTicks()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if maxSeconds > 0 && time.Since(start).Seconds() >= maxSeconds {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				j := jobs(i)
				a := hostTicks()
				t0 := time.Now()
				r, err := s.solve(ctx, j, tl)
				o := outcome{i: i, wall: time.Since(t0), host: hostTicks().sub(a)}
				if err == nil {
					err = check(j, r.res)
				}
				o.definitive, o.err = r.res.Status.Definitive(), err
				if tl != nil {
					o.r = r
				}
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p := &pass{window: time.Since(start), host: hostTicks().sub(before)}
	steal := p.steal()
	for _, o := range outcomes {
		p.add(unstolen(ms(o.wall), o.host, steal), o.definitive, o.err)
		if tl != nil && o.err == nil {
			p.answered = append(p.answered, answer{o.i, o.r, us(o.wall)})
		}
	}
	return p
}

// minJobTicks is the number of busy and stolen ticks (10 ms of one
// vCPU each) a job must span for its own steal share to be used. A
// shorter job's share is quantized to whole ticks: one stolen tick and
// no busy one would read as all of its time stolen.
const minJobTicks = 10

// unstolen scales a job's wall time w, over which the machine
// accounted job, to the time it would have taken without steal: by the
// job's own stolen share when it spans minJobTicks ticks, by the
// window's share when a shorter job saw any steal at all, and not at
// all when it saw none.
func unstolen(w float64, job ticks, window float64) float64 {
	switch {
	case job.busy+job.steal >= minJobTicks:
		return w * (1 - job.stealShare())
	case job.steal > 0:
		return w * (1 - window)
	}
	return w
}

// rusage returns the process's CPU time (user + system) and its peak
// resident set size in KiB.
func rusage() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

// ticks is a reading of the machine's CPU time accounting, or the
// difference of two readings.
type ticks struct{ busy, steal uint64 }

func (t ticks) sub(u ticks) ticks  { return ticks{t.busy - u.busy, t.steal - u.steal} }
func (t ticks) plus(u ticks) ticks { return ticks{t.busy + u.busy, t.steal + u.steal} }

// stealShare is the share of the vCPU time demanded over t, a
// difference of two readings, that the hypervisor stole. Idle vCPUs
// accrue no steal, so the share is of time the machine had work for.
func (t ticks) stealShare() float64 {
	return ratio(float64(t.steal), float64(t.busy+t.steal))
}

// procStat is /proc/stat, held open: reading it again from offset 0
// costs a third of reopening it, and a pass reads it twice per job.
var procStat = sync.OnceValue(func() *os.File {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	return f
})

// hostTicks reads the aggregate cpu line of /proc/stat: the time the
// vCPUs spent busy (user, nice, system, irq, softirq) and the time the
// hypervisor stole from them while they had work. It reads zero where
// the file is missing, which turns the steal correction off.
func hostTicks() ticks {
	f := procStat()
	if f == nil {
		return ticks{}
	}
	var buf [256]byte // the cpu line is ten counters at most 20 digits long
	n, _ := f.ReadAt(buf[:], 0)
	line, _, _ := strings.Cut(string(buf[:n]), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return ticks{}
	}
	v := func(i int) uint64 {
		n, _ := strconv.ParseUint(fields[i], 10, 64)
		return n
	}
	return ticks{busy: v(1) + v(2) + v(3) + v(6) + v(7), steal: v(8)}
}
