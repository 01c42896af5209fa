package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Compose builds the product of two specifications: one object that
// behaves as independent sub-objects A and B, with every invocation
// tagged by the sub-object it addresses. It makes Section 3.2's
// locality concrete and testable in both directions:
//
//   - operations on different sub-objects always commute, so the
//     product of two Property 1 types is again Property 1 — the
//     universal construction can serve any number of independent
//     objects from a single anchor array;
//   - a combined history is linearizable iff its per-object
//     projections are (locality); the tests check both directions on
//     recorded executions.
func Compose(a, b Spec) Spec { return composed{a: a, b: b} }

// TagA marks inv as addressing the first component of a composed spec.
func TagA(inv Inv) Inv { return Inv{Op: "a:" + inv.Op, Arg: inv.Arg} }

// TagB marks inv as addressing the second component.
func TagB(inv Inv) Inv { return Inv{Op: "b:" + inv.Op, Arg: inv.Arg} }

// Untag splits a composed invocation into its component ("a" or "b")
// and the underlying invocation.
func Untag(inv Inv) (string, Inv, error) {
	switch {
	case strings.HasPrefix(inv.Op, "a:"):
		return "a", Inv{Op: inv.Op[2:], Arg: inv.Arg}, nil
	case strings.HasPrefix(inv.Op, "b:"):
		return "b", Inv{Op: inv.Op[2:], Arg: inv.Arg}, nil
	default:
		return "", Inv{}, fmt.Errorf("spec: invocation %v lacks a component tag", inv)
	}
}

// composedState pairs the component states.
type composedState struct{ a, b State }

type composed struct{ a, b Spec }

func (c composed) Name() string { return c.a.Name() + "×" + c.b.Name() }

func (c composed) Init() State { return composedState{c.a.Init(), c.b.Init()} }

func (c composed) Apply(s State, inv Inv) (State, any) {
	st := s.(composedState)
	comp, in, err := Untag(inv)
	if err != nil {
		panic(err.Error())
	}
	if comp == "a" {
		na, resp := c.a.Apply(st.a, in)
		return composedState{na, st.b}, resp
	}
	nb, resp := c.b.Apply(st.b, in)
	return composedState{st.a, nb}, resp
}

func (c composed) Equal(x, y State) bool {
	sx, sy := x.(composedState), y.(composedState)
	return c.a.Equal(sx.a, sy.a) && c.b.Equal(sx.b, sy.b)
}

// Key quotes A's key so it is self-delimiting: no component key can
// forge the boundary, and distinct product states never share a key.
func (c composed) Key(s State) string {
	st := s.(composedState)
	return strconv.Quote(c.a.Key(st.a)) + c.b.Key(st.b)
}

// Commutes: cross-object operations always commute; same-object pairs
// defer to the component.
func (c composed) Commutes(p, q Inv) bool {
	cp, ip, err := Untag(p)
	if err != nil {
		return false
	}
	cq, iq, err := Untag(q)
	if err != nil {
		return false
	}
	if cp != cq {
		return true
	}
	if cp == "a" {
		return c.a.Commutes(ip, iq)
	}
	return c.b.Commutes(ip, iq)
}

// Overwrites: only within one component; cross-object effects never
// hide each other.
func (c composed) Overwrites(q, p Inv) bool {
	cq, iq, err := Untag(q)
	if err != nil {
		return false
	}
	cp, ip, err := Untag(p)
	if err != nil {
		return false
	}
	if cp != cq {
		return false
	}
	if cp == "a" {
		return c.a.Overwrites(iq, ip)
	}
	return c.b.Overwrites(iq, ip)
}

// Pure delegates the purity declaration to the addressed component.
func (c composed) Pure(inv Inv) bool {
	comp, in, err := Untag(inv)
	if err != nil {
		return false
	}
	if comp == "a" {
		return IsPure(c.a, in)
	}
	return IsPure(c.b, in)
}
