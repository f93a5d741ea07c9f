package runtime

import "sync"

// ProxyFeeder feeds a Handle that is not backed by a local driver. The
// cluster's remote-replica transport adapts one SSE response stream into a
// Handle this way: tokens parsed off the wire are Delivered into the same
// pooled-slab path the local driver uses, so consumers (the HTTP frontend,
// the router's audit) cannot tell a remote stream from a local one.
//
// Deliver and Close are safe to call from one feeding goroutine
// concurrently with the consumer's Handle.Next/Cancel; Deliver must not be
// called concurrently with itself.
type ProxyFeeder struct {
	sub       *submission
	closeOnce sync.Once
}

// NewProxyHandle returns a Handle whose events are supplied by the
// returned feeder instead of a local driver. onCancel, when non-nil, is
// invoked at most once — from the first Handle.Cancel call — with the
// abort reason; the feeder side is then expected to terminate the stream
// and Close the handle.
func NewProxyHandle(id int64, onCancel func(FinishReason)) (*Handle, *ProxyFeeder) {
	sub := newSubmission(nil, 0, onCancel)
	return &Handle{ID: id, sub: sub}, &ProxyFeeder{sub: sub}
}

// Deliver appends events for the consumer's next Handle.Next call through
// the driver's own delivery path: it never blocks on the consumer and is a
// no-op after Close.
func (f *ProxyFeeder) Deliver(evs ...TokenEvent) { f.sub.deliver(evs...) }

// Close terminates the stream with the given reason: pending events remain
// drainable, then Handle.Next returns nil and Handle.FinishReason reports
// the reason (Done is closed first, matching the driver's finishSub
// ordering). Idempotent — the first reason wins.
func (f *ProxyFeeder) Close(reason FinishReason) {
	f.closeOnce.Do(func() { f.sub.closeStream(reason) })
}

// Abort terminates a stream early exactly like the driver does: one
// synthetic, empty-Text terminal event carrying the reason (at the given
// output index), then Close.
func (f *ProxyFeeder) Abort(reqID int64, index int, reason FinishReason) {
	f.Deliver(TokenEvent{ReqID: reqID, Index: index, Finished: true, Reason: reason})
	f.Close(reason)
}

// Closed reports whether Close has run (the stream reached a terminal
// state on the feeding side).
func (f *ProxyFeeder) Closed() bool {
	f.sub.dmu.Lock()
	defer f.sub.dmu.Unlock()
	return f.sub.dclosed
}
