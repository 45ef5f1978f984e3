package memsys

import "testing"

// FuzzPaged checks Paged[uint64] against a map[uint64]uint64 under a decoded
// sequence of At (write), Peek, Load and ForEach operations. Every four
// input bytes are one operation: the first selects it, the next three (with
// the top nibble of the last dropped) give an index below 2^20. Beyond value
// agreement it checks that Peek, Load and ForEach never allocate a page,
// that ForEach visits exactly the allocated pages in ascending index order,
// and that element pointers stay stable as the table grows.
func FuzzPaged(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 1, 5, 0, 0, 2, 6, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{0, 0xff, 0xff, 0x0f, 0, 1, 0, 0, 1, 0, 1, 0, 3, 0, 0, 0, 2, 0xff, 0xff, 0x0f})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 3, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 1, 2, 0, 0, 2, 0, 5, 0, 0, 1, 0, 0, 3, 2, 7, 0, 3, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Paged[uint64]
		ref := map[uint64]uint64{}
		ptrs := map[uint64]*uint64{}
		pages := map[uint64]bool{}
		for step := uint64(1); len(data) >= 4; step++ {
			op := data[0] % 4
			i := uint64(data[1]) | uint64(data[2])<<8 | uint64(data[3]&0x0f)<<16
			data = data[4:]
			before := p.Pages()
			switch op {
			case 0: // At
				e := p.At(i)
				if q, ok := ptrs[i]; ok && q != e {
					t.Fatalf("step %d: At(%d) moved the element", step, i)
				}
				if *e != ref[i] {
					t.Fatalf("step %d: At(%d) = %d, want %d", step, i, *e, ref[i])
				}
				ptrs[i] = e
				*e = step
				ref[i] = step
				pages[i>>pageShift] = true
			case 1: // Peek
				e := p.Peek(i)
				if (e != nil) != pages[i>>pageShift] {
					t.Fatalf("step %d: Peek(%d) = %v, page touched = %v", step, i, e, pages[i>>pageShift])
				}
				if e == nil {
					break
				}
				if *e != ref[i] {
					t.Fatalf("step %d: Peek(%d) = %d, want %d", step, i, *e, ref[i])
				}
				if q, ok := ptrs[i]; ok && q != e {
					t.Fatalf("step %d: Peek(%d) disagrees with the pointer At returned", step, i)
				}
			case 2: // Load
				if got := p.Load(i); got != ref[i] {
					t.Fatalf("step %d: Load(%d) = %d, want %d", step, i, got, ref[i])
				}
			case 3: // ForEach
				n, written, next := 0, 0, uint64(0)
				p.ForEach(func(j uint64, v *uint64) {
					if n > 0 && j < next {
						t.Fatalf("step %d: ForEach visited %d after %d", step, j, next-1)
					}
					if j&pageMask == 0 && !pages[j>>pageShift] {
						t.Fatalf("step %d: ForEach visited untouched page %d", step, j>>pageShift)
					}
					n, next = n+1, j+1
					if *v == 0 {
						return
					}
					if *v != ref[j] {
						t.Fatalf("step %d: ForEach saw %d at %d, want %d", step, *v, j, ref[j])
					}
					if ptrs[j] != v {
						t.Fatalf("step %d: ForEach disagrees with the pointer At returned for %d", step, j)
					}
					written++
				})
				if n != len(pages)*pageLen || written != len(ref) {
					t.Fatalf("step %d: ForEach visited %d elements (%d written), want %d pages of %d (%d written)",
						step, n, written, len(pages), pageLen, len(ref))
				}
			}
			if op != 0 && p.Pages() != before {
				t.Fatalf("step %d: op %d allocated a page", step, op)
			}
			if p.Pages() != len(pages) {
				t.Fatalf("step %d: Pages = %d, want %d", step, p.Pages(), len(pages))
			}
		}
	})
}
