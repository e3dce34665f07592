package deadexport

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 1 || Oracle() != 4 || BareAllowed() != 5 {
		t.Fatal("fixture values changed")
	}
	_ = helper()
	_ = validate(&Report{OK: true})
	_ = failure{}
}
