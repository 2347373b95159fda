// Package mem consumes instrumentation hooks, so nilgate applies: every
// dereference of a hook-typed field chain needs a dominating nil check.
package mem

import (
	"fixmod/internal/chaos"
	"fixmod/internal/obs"
)

type config struct {
	Tracer *obs.Tracer
	Faults *chaos.Injector
}

type pool struct {
	cfg   config
	trace *obs.Tracer
}

func (p *pool) alloc(v int) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Emit(v) // guarded by the enclosing if
	}
	p.cfg.Faults.Arm(1) // want nilgate:"p.cfg.Faults is dereferenced without a dominating"
}

// free uses the early-return guard idiom; the fact flows past the if.
func (p *pool) free(v int) {
	if p.trace == nil {
		return
	}
	p.trace.Emit(v)
}

// observe relies on a short-circuit fact from the left && operand.
func (p *pool) observe(v int) {
	if p.cfg.Tracer != nil && v > 0 {
		p.cfg.Tracer.Emit(v)
	}
}

// reset copies the hook into a local first — the sanctioned alternative
// idiom; the copy itself is not a dereference.
func (p *pool) reset() {
	inj := p.cfg.Faults
	if inj != nil {
		inj.Arm(1)
	}
}

// rebind shows guard invalidation: reassigning the field kills the fact
// established by the enclosing check.
func (p *pool) rebind(t *obs.Tracer) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer = t
		p.cfg.Tracer.Emit(1) // want nilgate:"p.cfg.Tracer is dereferenced without a dominating"
	}
}

// hot documents a caller-side invariant instead of re-checking.
func (p *pool) hot(v int) {
	p.trace.Emit(v) //htmlint:allow nilgate -- caller guarantees trace != nil on this path
}

// install writes to the hook field; assignment is a copy, not a deref.
func (p *pool) install(t *obs.Tracer) {
	p.trace = t
}
