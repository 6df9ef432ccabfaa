package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"distauction/internal/transport"
	"distauction/internal/wire"
)

// timedNet is the traced run's probe at the transport boundary: it wraps the
// outermost Network of a deployment, so every send the market mux issues and
// every inbound dispatch it receives passes through timedConn. It counts
// frames and envelopes and times the calls; the program itself is unchanged.
type timedNet struct {
	inner     transport.Network
	providers map[wire.NodeID]bool
	c         wireCounters
}

// wireCounters are cumulative over the run; the window takes deltas.
type wireCounters struct {
	frames, envs         atomic.Int64 // every attachment
	provFrames, provEnvs atomic.Int64 // provider attachments (what the mux counts)
	sendNanos            atomic.Int64 // time inside Send/SendBatch
	ingestNanos          atomic.Int64 // time inside inbound handlers
}

type wireSnapshot struct {
	frames, envs, provFrames, provEnvs, sendNanos, ingestNanos int64
}

func (c *wireCounters) snapshot() wireSnapshot {
	return wireSnapshot{
		frames: c.frames.Load(), envs: c.envs.Load(),
		provFrames: c.provFrames.Load(), provEnvs: c.provEnvs.Load(),
		sendNanos: c.sendNanos.Load(), ingestNanos: c.ingestNanos.Load(),
	}
}

func (a wireSnapshot) sub(b wireSnapshot) wireSnapshot {
	return wireSnapshot{
		frames: a.frames - b.frames, envs: a.envs - b.envs,
		provFrames: a.provFrames - b.provFrames, provEnvs: a.provEnvs - b.provEnvs,
		sendNanos: a.sendNanos - b.sendNanos, ingestNanos: a.ingestNanos - b.ingestNanos,
	}
}

var _ transport.Network = (*timedNet)(nil)

func (n *timedNet) Stats() transport.StatsSnapshot { return n.inner.Stats() }
func (n *timedNet) Close() error                   { return n.inner.Close() }

// batchPushConn is what every transport the benchmark deploys offers: the
// mux keeps superframe batching and push dispatch only if the wrapper does.
type batchPushConn interface {
	transport.BatchConn
	transport.PushBatchConn
}

// Attach wraps the inner attachment in a conn with exactly the inner conn's
// optional interfaces, and refuses to run if it cannot: a wrapper that hid
// BatchConn or HealthReporter would measure a different program.
func (n *timedNet) Attach(id wire.NodeID) (transport.Conn, error) {
	inner, err := n.inner.Attach(id)
	if err != nil {
		return nil, err
	}
	bp, ok := inner.(batchPushConn)
	if !ok {
		_ = inner.Close()
		return nil, fmt.Errorf("perfbench: node %d: transport %T lacks batching or push dispatch", id, inner)
	}
	tc := &timedConn{inner: bp, c: &n.c, provider: n.providers[id]}
	var out transport.Conn = tc
	if hr, ok := inner.(transport.HealthReporter); ok {
		out = &timedHealthConn{timedConn: tc, hr: hr}
	}
	if got, want := interfacesOf(out), interfacesOf(inner); got != want {
		_ = inner.Close()
		return nil, fmt.Errorf("perfbench: node %d: wrapper offers %s, transport offers %s", id, got, want)
	}
	return out, nil
}

// interfacesOf names the optional transport interfaces a conn implements.
func interfacesOf(c transport.Conn) string {
	s := ""
	if _, ok := c.(transport.BatchConn); ok {
		s += "Batch "
	}
	if _, ok := c.(transport.PushConn); ok {
		s += "Push "
	}
	if _, ok := c.(transport.PushBatchConn); ok {
		s += "PushBatch "
	}
	if _, ok := c.(transport.HealthReporter); ok {
		s += "Health "
	}
	return "[" + s + "]"
}

type timedConn struct {
	inner    batchPushConn
	c        *wireCounters
	provider bool
}

func (t *timedConn) Self() wire.NodeID { return t.inner.Self() }

func (t *timedConn) Recv(ctx context.Context) (wire.Envelope, error) { return t.inner.Recv(ctx) }

func (t *timedConn) Close() error { return t.inner.Close() }

func (t *timedConn) sent(envs int, began time.Time) {
	t.c.sendNanos.Add(int64(time.Since(began)))
	t.c.frames.Add(1)
	t.c.envs.Add(int64(envs))
	if t.provider {
		t.c.provFrames.Add(1)
		t.c.provEnvs.Add(int64(envs))
	}
}

func (t *timedConn) Send(env wire.Envelope) error {
	began := time.Now()
	err := t.inner.Send(env)
	t.sent(1, began)
	return err
}

func (t *timedConn) SendBatch(envs []wire.Envelope) error {
	began := time.Now()
	n := len(envs) // the callee may recycle the slice
	err := t.inner.SendBatch(envs)
	t.sent(n, began)
	return err
}

// SetHandler times the receiver's handler; the time includes any sends the
// handler makes inline.
func (t *timedConn) SetHandler(h transport.Handler) {
	if h == nil {
		t.inner.SetHandler(nil)
		return
	}
	t.inner.SetHandler(func(env wire.Envelope) {
		began := time.Now()
		h(env)
		t.c.ingestNanos.Add(int64(time.Since(began)))
	})
}

func (t *timedConn) SetBatchHandler(h transport.BatchHandler) {
	if h == nil {
		t.inner.SetBatchHandler(nil)
		return
	}
	t.inner.SetBatchHandler(func(envs []wire.Envelope) {
		began := time.Now()
		h(envs)
		t.c.ingestNanos.Add(int64(time.Since(began)))
	})
}

// timedHealthConn forwards the failure detector of a resilient attachment,
// which the mux uses to tell a crashed peer from a slow one.
type timedHealthConn struct {
	*timedConn
	hr transport.HealthReporter
}

func (t *timedHealthConn) PeerDead(id wire.NodeID) bool       { return t.hr.PeerDead(id) }
func (t *timedHealthConn) PeerHealth() []transport.PeerHealth { return t.hr.PeerHealth() }
func (t *timedHealthConn) LinkStats() transport.LinkStats     { return t.hr.LinkStats() }
