package sim

import "testing"

func TestClockConversions(t *testing.T) {
	c := NewClock(400e6) // 400 MHz -> 2.5 ns period
	if got, want := c.Cycles(1), Nanoseconds(2.5); got != want {
		t.Fatalf("period = %v, want %v", got, want)
	}
	if got := c.Cycles(6); got != Nanoseconds(15) {
		t.Fatalf("6 cycles = %v, want 15ns", got)
	}
}

func TestClockPanicsOnZeroFrequency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{Nanoseconds(2.5), "2.5ns"},
		{Microseconds(10), "10us"},
		{Milliseconds(60), "60ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d ps -> %q, want %q", int64(c.t), got, c.want)
		}
	}
}
