// Package lib holds one declaration for each case the check decides.
package lib

// Dead is reported: nothing reaches it.
func Dead() int { return helper() }

// helper is reported: only Dead reaches it.
func helper() int { return 1 }

// OwnTestOnly is reported: only this package's own test uses it.
func OwnTestOnly() int { return 2 }

// OtherTestOnly is reported: only another package's test uses it.
func OtherTestOnly() int { return 3 }

// Tested is reported, with its method: only another package's test
// uses them.
type Tested struct{}

// Get is reported: its type is not live.
func (Tested) Get() int { return 5 }

// Shape is a named interface the program uses.
type Shape interface{ Area() float64 }

// Square is live through Shape.
type Square struct{}

// Area is live: Square satisfies Shape.
func (Square) Area() float64 { return 1 }

// Window is live; its method is reached only through a type assertion
// to an interface type literal.
type Window struct{ n int }

// SetWindow is live: Resize asserts interface{ SetWindow(int) }.
func (w *Window) SetWindow(n int) { w.n = n }

// Size is live: another package's test reads it, and Window is live.
func (w *Window) Size() int { return w.n }

// Resize sets the window of anything that has one.
func Resize(x any) {
	if s, ok := x.(interface{ SetWindow(int) }); ok {
		s.SetWindow(8)
	}
}

// Queue is a generic type used through an instantiation.
type Queue[T any] struct{ items []T }

// Push is live: main calls it on a Queue[int].
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }
