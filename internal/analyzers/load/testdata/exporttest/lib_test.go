package exporttest_test

import (
	"testing"

	"mdm/internal/analyzers/load/testdata/exporttest"
)

func TestDouble(t *testing.T) {
	if exporttest.Double(2) != 4 {
		t.Fail()
	}
}
