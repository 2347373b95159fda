// Package obs mirrors the shape of the real instrumentation provider:
// it declares the hook types and is therefore exempt from nilgate — its
// own internals manipulate the handles freely.
package obs

type Tracer struct{ n int }

func (t *Tracer) Emit(v int) { t.n += v }

// hub dereferences a hook field with no nil check; the provider-package
// exemption means this is not a finding.
type hub struct{ t *Tracer }

func (h *hub) relay(v int) { h.t.Emit(v) }
