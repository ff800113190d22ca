package exec

import (
	"fmt"

	"repro/internal/record"
)

// Limit emits at most N rows; N is an expression (TOP ?) evaluated at Open.
type Limit struct {
	Input Node
	N     scalarFn
	left  int64
}

// Open implements Node.
func (l *Limit) Open(ctx *Ctx) error {
	v, err := l.N(ctx, nil)
	if err != nil {
		return err
	}
	if v.Null || v.I < 0 {
		return fmt.Errorf("exec: TOP requires a non-negative integer, got %s", v)
	}
	l.left = v.I
	return l.Input.Open(ctx)
}

// Next implements Node.
func (l *Limit) Next(ctx *Ctx) (record.Row, error) {
	if l.left <= 0 {
		return nil, nil
	}
	r, err := l.Input.Next(ctx)
	if err != nil || r == nil {
		return r, err
	}
	l.left--
	return r, nil
}

// Close implements Node.
func (l *Limit) Close() { l.Input.Close() }

// Clone implements Node.
func (l *Limit) Clone() Node { return &Limit{Input: l.Input.Clone(), N: l.N} }

// Distinct removes duplicate rows (by order-preserving key encoding of the
// whole row).
type Distinct struct {
	Input Node
	seen  map[string]struct{}
}

// Open implements Node.
func (d *Distinct) Open(ctx *Ctx) error {
	d.seen = make(map[string]struct{})
	return d.Input.Open(ctx)
}

// Next implements Node.
func (d *Distinct) Next(ctx *Ctx) (record.Row, error) {
	for {
		r, err := d.Input.Next(ctx)
		if err != nil || r == nil {
			return r, err
		}
		key := string(record.EncodeKey(nil, r...))
		if _, dup := d.seen[key]; dup {
			continue
		}
		d.seen[key] = struct{}{}
		return r, nil
	}
}

// Close implements Node.
func (d *Distinct) Close() {
	d.Input.Close()
	d.seen = nil
}

// Clone implements Node.
func (d *Distinct) Clone() Node { return &Distinct{Input: d.Input.Clone()} }
