// Package deadexport is a smavet analyzer fixture. Lines marked
// "want-marked deadexport" must be flagged; everything else must not.
package deadexport

import (
	"errors"
	"net/http"
)

// OnlyTests is called from deadexport_test.go alone, which the loader
// never reads.
func OnlyTests() int { return 1 } // want deadexport

// Recursive calls itself and nothing else calls it.
func Recursive(n int) int { // want deadexport
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Caller has no caller, but its call keeps Callee referenced.
func Caller() int { return Callee() } // want deadexport

func Callee() int { return 2 }

// UsedAsValue is never called, only stored.
func UsedAsValue(x int) int { return x }

var Hooks = []func(int) int{UsedAsValue}

// unexported functions are out of scope, dead or not.
func helper() int { return 3 }

// Shape is a named interface; Square.Area satisfies it.
type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter satisfies no interface and has no caller.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want deadexport

// Report.Check satisfies the anonymous interface validate asserts.
type Report struct{ OK bool }

func (r *Report) Check() error {
	if !r.OK {
		return errors.New("report failed")
	}
	return nil
}

func validate(v any) error {
	if c, ok := v.(interface{ Check() error }); ok {
		return c.Check()
	}
	return nil
}

// failure satisfies error, and Unwrap is the errors package's protocol.
type failure struct{ err error }

func (f failure) Error() string { return "failure: " + f.err.Error() }
func (f failure) Unwrap() error { return f.err }

// Endpoint satisfies http.Handler.
type Endpoint struct{}

func (Endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {}

// Oracle is kept by a reasoned directive.
//
//smavet:allow deadexport -- oracle of TestOracle
func Oracle() int { return 4 }

// BareAllowed carries a directive without a reason, which does not
// suppress a reason-required check.
//
//smavet:allow deadexport
func BareAllowed() int { return 5 } // want deadexport
