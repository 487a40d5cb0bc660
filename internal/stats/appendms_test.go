package stats

import (
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// refMs is the reference AppendMs must equal: the float formatter the
// sample export used before.
func refMs(d time.Duration) string { return strconv.FormatFloat(Ms(d), 'f', 4, 64) }

func checkAppendMs(t testing.TB, d time.Duration) {
	t.Helper()
	if got, want := string(AppendMs(nil, d)), refMs(d); got != want {
		t.Fatalf("AppendMs(%d ns) = %q, want %q", int64(d), got, want)
	}
}

func TestAppendMsTable(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "0.0000"},
		{49, "0.0000"},
		{50, "0.0001"}, // tie: the float lies just above 0.00005
		{51, "0.0001"},
		{149, "0.0001"},
		{150, "0.0001"},    // tie: the float lies just below 0.00015
		{31_250, "0.0312"}, // exact binary tie 1/32 ms: round half to even
		{93_750, "0.0938"}, // exact binary tie 3/32 ms
		{999_950, "1.0000"},
		{50 * time.Millisecond, "50.0000"},
		{50*time.Millisecond + 12_345, "50.0123"},
		{-49, "-0.0000"},
		{-1_500_000, "-1.5000"},
		{1<<52 - 1, refMs(1<<52 - 1)},
		{1 << 52, refMs(1 << 52)},
		{1<<63 - 1, refMs(1<<63 - 1)},
		{-1 << 63, refMs(-1 << 63)},
	} {
		if got := string(AppendMs(nil, tc.d)); got != tc.want {
			t.Errorf("AppendMs(%d ns) = %q, want %q", int64(tc.d), got, tc.want)
		}
		checkAppendMs(t, tc.d)
	}
}

// TestAppendMsTies walks every d%100 == 50 tie over the first ten
// milliseconds (which include every exact binary tie below 10 ms, e.g.
// 31,250 ns), plus ties near 2^52 where the fast path's error bound is
// tightest.
func TestAppendMsTies(t *testing.T) {
	for d := time.Duration(50); d < 10*time.Millisecond; d += 100 {
		checkAppendMs(t, d)
	}
	for d := time.Duration(1<<52 - 100_050); d < 1<<52+100_000; d += 100 {
		checkAppendMs(t, d)
	}
}

// TestAppendMsNear2p52 checks every value around the fast path's upper
// bound, where one ulp of Ms(d) comes closest to the 1 ns margin.
func TestAppendMsNear2p52(t *testing.T) {
	for d := time.Duration(1<<52 - 2_000); d < 1<<52+2_000; d++ {
		checkAppendMs(t, d)
	}
}

// TestAppendMsProperty compares against strconv on random durations
// across every magnitude, sign included.
func TestAppendMsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		d := time.Duration(rng.Int63() >> uint(rng.Intn(63)))
		if rng.Intn(8) == 0 {
			d = -d
		}
		checkAppendMs(t, d)
	}
}

func TestAppendMsAppends(t *testing.T) {
	if got := string(AppendMs([]byte("x="), 1_500_000)); got != "x=1.5000" {
		t.Fatalf("AppendMs kept prefix wrong: %q", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		var buf [32]byte
		_ = AppendMs(buf[:0], 12_345_678)
	}); n != 0 {
		t.Fatalf("AppendMs allocated %v times per call", n)
	}
}

func FuzzAppendMs(f *testing.F) {
	for _, d := range []int64{0, 50, 150, 31_250, -49, 1 << 52, 1<<52 - 50, 1<<63 - 1, -1 << 63} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, d int64) { checkAppendMs(t, time.Duration(d)) })
}
