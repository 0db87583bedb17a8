package experiments

import (
	"os"
	"testing"
)

func TestFig15Full(t *testing.T) {
	tab, err := NewEngine(Fast()).Table("fig15")
	if err != nil {
		t.Fatal(err)
	}
	tab.Print(os.Stdout)
}
