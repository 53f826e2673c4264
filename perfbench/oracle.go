package main

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/flipbit-sim/flipbit/internal/kvs"
)

// checkGet compares a Get result with the model value; a nil want means
// the key is absent and the store must say kvs.ErrNotFound.
func checkGet(key string, got []byte, err error, want []byte) error {
	if want == nil {
		if !errors.Is(err, kvs.ErrNotFound) {
			return fmt.Errorf("get %s: want ErrNotFound, got err=%v with %d bytes", key, err, len(got))
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("get %s: %w", key, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("get %s: value differs from the last one written", key)
	}
	return nil
}

// checkScan compares a scan's results, in any order, with the model's
// records that satisfy the predicate.
func checkScan(got []kvs.KV, want map[string][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("scan: %d results, model has %d", len(got), len(want))
	}
	seen := make(map[string]bool, len(got))
	for _, kv := range got {
		w, ok := want[kv.Key]
		if !ok || seen[kv.Key] {
			return fmt.Errorf("scan: unexpected or repeated key %s", kv.Key)
		}
		seen[kv.Key] = true
		if !bytes.Equal(kv.Val, w) {
			return fmt.Errorf("scan: value of %s differs from the model", kv.Key)
		}
	}
	return nil
}

// checkFrame compares a read-back frame with the frame just written, page
// by page, and fails if any page's mean absolute error exceeds limit. It
// returns the frame's summed absolute error.
func checkFrame(got, want []byte, pageSize int, limit float64) (uint64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("frame: read %d bytes, wrote %d", len(got), len(want))
	}
	var total uint64
	for p := 0; p < len(want); p += pageSize {
		var sum uint64
		for i := p; i < p+pageSize && i < len(want); i++ {
			d := int(got[i]) - int(want[i])
			if d < 0 {
				d = -d
			}
			sum += uint64(d)
		}
		if mae := float64(sum) / float64(min(pageSize, len(want)-p)); mae > limit {
			return total, fmt.Errorf("frame: page at byte %d has MAE %.3f > %.1f", p, mae, limit)
		}
		total += sum
	}
	return total, nil
}
