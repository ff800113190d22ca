package exec

import (
	"repro/internal/record"
)

// NestedLoopJoin iterates the outer (left) input and re-opens the inner
// (right) input per outer row. The inner plan is compiled with the outer
// layout as its parent env, so inner index probes and residual predicates
// referencing outer columns read them from the ctx stack — this is how
// index-nested-loop joins work here, mirroring the E-operator's
// TVisited ⋈ TEdges probe into the clustered edge index.
type NestedLoopJoin struct {
	Outer Node
	Inner Node

	outerRow record.Row
	innerOn  bool
	out      record.Row // the one output row, rebuilt by every Next
}

// Open implements Node.
func (j *NestedLoopJoin) Open(ctx *Ctx) error {
	j.outerRow = nil
	j.innerOn = false
	return j.Outer.Open(ctx)
}

// Next implements Node.
func (j *NestedLoopJoin) Next(ctx *Ctx) (record.Row, error) {
	for {
		if !j.innerOn {
			r, err := j.Outer.Next(ctx)
			if err != nil {
				return nil, err
			}
			if r == nil {
				return nil, nil
			}
			j.outerRow = r
			ctx.Push(j.outerRow)
			if err := j.Inner.Open(ctx); err != nil {
				ctx.Pop()
				return nil, err
			}
			j.innerOn = true
		}
		ir, err := j.Inner.Next(ctx)
		if err != nil {
			j.Inner.Close()
			ctx.Pop()
			j.innerOn = false
			return nil, err
		}
		if ir == nil {
			j.Inner.Close()
			ctx.Pop()
			j.innerOn = false
			continue
		}
		j.out = append(append(j.out[:0], j.outerRow...), ir...)
		return j.out, nil
	}
}

// Clone implements Node.
func (j *NestedLoopJoin) Clone() Node {
	return &NestedLoopJoin{Outer: j.Outer.Clone(), Inner: j.Inner.Clone()}
}

// Close implements Node.
func (j *NestedLoopJoin) Close() {
	if j.innerOn {
		j.Inner.Close()
		j.innerOn = false
	}
	j.Outer.Close()
}

// HashJoin materializes the right input into a hash table on its equi-join
// keys, then streams the left input probing it. Keys containing NULL never
// match. Used when no index supports the join column.
type HashJoin struct {
	Left      Node
	Right     Node
	LeftKeys  []scalarFn
	RightKeys []scalarFn

	built   map[string][]record.Row
	lrow    record.Row
	matches []record.Row
	mpos    int
	out     record.Row // the one output row, rebuilt by every Next
}

// Open implements Node: builds the hash table from the right input.
func (j *HashJoin) Open(ctx *Ctx) error {
	j.built = make(map[string][]record.Row)
	j.lrow = nil
	j.matches = nil
	j.mpos = 0
	rows, err := runPlan(j.Right, ctx)
	if err != nil {
		return err
	}
	for _, r := range rows {
		key, null, err := joinKey(ctx, r, j.RightKeys)
		if err != nil {
			return err
		}
		if null {
			continue
		}
		j.built[key] = append(j.built[key], r)
	}
	return j.Left.Open(ctx)
}

func joinKey(ctx *Ctx, row record.Row, fns []scalarFn) (string, bool, error) {
	vals := make([]record.Value, len(fns))
	for i, f := range fns {
		v, err := f(ctx, row)
		if err != nil {
			return "", false, err
		}
		if v.Null {
			return "", true, nil
		}
		vals[i] = v
	}
	return string(record.EncodeKey(nil, vals...)), false, nil
}

// Next implements Node.
func (j *HashJoin) Next(ctx *Ctx) (record.Row, error) {
	for {
		if j.mpos < len(j.matches) {
			m := j.matches[j.mpos]
			j.mpos++
			j.out = append(append(j.out[:0], j.lrow...), m...)
			return j.out, nil
		}
		lr, err := j.Left.Next(ctx)
		if err != nil {
			return nil, err
		}
		if lr == nil {
			return nil, nil
		}
		key, null, err := joinKey(ctx, lr, j.LeftKeys)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		j.lrow = lr
		j.matches = j.built[key]
		j.mpos = 0
	}
}

// Close implements Node.
func (j *HashJoin) Close() {
	j.Left.Close()
	j.built = nil
}

// Clone implements Node.
func (j *HashJoin) Clone() Node {
	return &HashJoin{Left: j.Left.Clone(), Right: j.Right.Clone(),
		LeftKeys: j.LeftKeys, RightKeys: j.RightKeys}
}
