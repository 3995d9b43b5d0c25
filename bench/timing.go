package main

import (
	"sync/atomic"
	"time"

	"haste/internal/netsim"
)

// onlineClock times the online path from outside the program: it is a
// netsim.Factory wrapper handed to online.Options.Driver, so it sees every
// driver build, every Driver.Run (one negotiation session), every Close,
// and — by wrapping the nodes passed to Run — every node Step. Whatever
// online.Run spends outside those calls (agent construction, dominant
// policy extraction, neighbor and energy views, final plan sampling and
// the physical execution) is the caller's remainder, online.prepare_s.
//
// Build, Run and Close are called from the negotiating goroutine only;
// steps may run concurrently (the socket driver steps each node on its
// own goroutine), so the step total is atomic.
type onlineClock struct {
	build, run, close time.Duration
	builds, runs      int
	rounds            int64
	step              atomic.Int64 // nanoseconds summed over node steps
}

// factory wraps inner so every driver it builds reports to c.
func (c *onlineClock) factory(inner netsim.Factory) netsim.Factory {
	return func(neighbors [][]int, opt netsim.Options) (netsim.Driver, error) {
		t := time.Now()
		d, err := inner(neighbors, opt)
		c.build += time.Since(t)
		c.builds++
		if err != nil {
			return nil, err
		}
		return &timedDriver{inner: d, c: c}, nil
	}
}

// stepTotal is the summed node Step time.
func (c *onlineClock) stepTotal() time.Duration { return time.Duration(c.step.Load()) }

type timedDriver struct {
	inner   netsim.Driver
	c       *onlineClock
	wrapped []netsim.Node
	nodes   []netsim.Node // the slice wrapped was built from
}

func (d *timedDriver) Run(nodes []netsim.Node) (netsim.Stats, error) {
	if !sameNodes(d.nodes, nodes) {
		d.nodes = append(d.nodes[:0], nodes...)
		d.wrapped = make([]netsim.Node, len(nodes))
		for i, n := range nodes {
			d.wrapped[i] = timedNode{inner: n, total: &d.c.step}
		}
	}
	t := time.Now()
	st, err := d.inner.Run(d.wrapped)
	d.c.run += time.Since(t)
	d.c.runs++
	d.c.rounds += int64(st.Rounds)
	return st, err
}

func (d *timedDriver) Close() error {
	t := time.Now()
	err := d.inner.Close()
	d.c.close += time.Since(t)
	return err
}

// sameNodes reports whether two node slices hold the same nodes in order
// (the online layer passes one slice per negotiation to every Run).
func sameNodes(a, b []netsim.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type timedNode struct {
	inner netsim.Node
	total *atomic.Int64
}

func (n timedNode) Step(inbox []netsim.Message) (netsim.Payload, bool) {
	t := time.Now()
	out, done := n.inner.Step(inbox)
	n.total.Add(int64(time.Since(t)))
	return out, done
}
