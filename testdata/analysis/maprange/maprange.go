// Package maprange is a bbvet fixture: map iteration whose order can reach
// output, error text, channel sends, or order-dependent accumulation is
// flagged; the collect-keys-then-sort idiom and per-key updates are not.
package maprange

import (
	"fmt"
	"sort"
)

func keysSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // sorted below: legal
	}
	sort.Strings(keys)
	return keys
}

func leakedAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `order-dependent slice`
	}
	return out
}

func emit(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt.Println output`
	}
}

func errText(m map[string]bool) error {
	for k := range m {
		if !m[k] {
			return fmt.Errorf("bad %s", k) // want `fmt.Errorf output`
		}
	}
	return nil
}

func send(m map[string]int, ch chan<- string) {
	for k := range m {
		ch <- k // want `channel send`
	}
}

func sumFloats(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `order-dependent`
	}
	return sum
}

func sumInts(m map[string]int) int {
	var sum int
	for _, v := range m {
		sum += v // integer accumulation is exact: legal
	}
	return sum
}

func perKey(src, dst map[string]float64) {
	for k, v := range src {
		dst[k] += v // per-key update: legal
	}
}

func allowedEmit(m map[string]int) {
	for k := range m {
		//bbvet:allow maprange debug dump, ordering is cosmetic here
		fmt.Println(k)
	}
}

func unsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `order-dependent slice`
	}
	return out
}
