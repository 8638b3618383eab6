package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark host is a virtual machine whose vCPUs the hypervisor shares
// with other guests: the time it gives away ("steal" in /proc/stat) moved
// wall-clock figures by up to a quarter between runs of the same code. The
// run therefore samples the host's CPU counters and takes every timed
// interval net of the share of it that was stolen; the raw figures and the
// stolen share are printed beside the result.

// cpuTicks is the host's aggregate CPU time: the ticks its vCPUs ran guest
// work and the ticks the hypervisor stole from them.
type cpuTicks struct{ busy, steal uint64 }

func readTicks() (cpuTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return cpuTicks{}, false
		}
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, true
}

// stealShare is the share of the time the vCPUs wanted to run that the
// hypervisor gave to other guests between a and b.
func stealShare(a, b cpuTicks) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal == 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

type tickSample struct {
	at time.Time
	t  cpuTicks
}

// stealClock samples the host's CPU counters every stealPeriod.
type stealClock struct {
	mu      sync.Mutex
	samples []tickSample
	stopCh  chan struct{}
	done    chan struct{}
}

const stealPeriod = 100 * time.Millisecond

// startStealClock starts sampling; on a host without /proc/stat it returns
// a clock that adjusts nothing.
func startStealClock() *stealClock {
	c := &stealClock{stopCh: make(chan struct{}), done: make(chan struct{})}
	if !c.sample() {
		close(c.done)
		return c
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-c.stopCh:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() bool {
	t, ok := readTicks()
	if ok {
		c.mu.Lock()
		c.samples = append(c.samples, tickSample{time.Now(), t})
		c.mu.Unlock()
	}
	return ok
}

// stop ends sampling after one last sample.
func (c *stealClock) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	close(c.stopCh)
	<-c.done
	c.sample()
}

// share is the stolen share over the sampled interval around [from, to]:
// from the last sample at or before from to the first at or after to.
func (c *stealClock) share(from, to time.Time) float64 {
	c.mu.Lock()
	behind := len(c.samples) > 0 && c.samples[len(c.samples)-1].at.Before(to)
	c.mu.Unlock()
	if behind {
		c.sample()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.samples)
	if n < 2 {
		return 0
	}
	i := sort.Search(n, func(k int) bool { return c.samples[k].at.After(from) }) - 1
	j := sort.Search(n, func(k int) bool { return !c.samples[k].at.Before(to) })
	i = max(i, 0)
	j = min(j, n-1)
	if j <= i {
		return 0
	}
	return stealShare(c.samples[i].t, c.samples[j].t)
}

// netMs is the length of [from, to] in ms, less its stolen share.
func (c *stealClock) netMs(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Millisecond) * (1 - c.share(from, to))
}
