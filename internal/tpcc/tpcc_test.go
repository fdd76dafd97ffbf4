package tpcc

import (
	"sort"
	"testing"
)

// smallCfg is a fast test configuration.
func smallCfg() Config {
	return Config{
		Warehouses:               2,
		CustomersPerDistrict:     60,
		Items:                    1000,
		InitialOrdersPerDistrict: 60,
		CachePages:               256,
		CheckpointEveryTx:        500,
		Seed:                     7,
	}
}

func TestLoadPopulatesTables(t *testing.T) {
	e := NewEngine(smallCfg())
	cfg := e.cfg
	if got, want := e.warehouse.Len(), cfg.Warehouses; got != want {
		t.Errorf("warehouses: %d, want %d", got, want)
	}
	if got, want := e.district.Len(), cfg.Warehouses*cfg.DistrictsPerWarehouse; got != want {
		t.Errorf("districts: %d, want %d", got, want)
	}
	if got, want := e.customer.Len(), cfg.Warehouses*cfg.DistrictsPerWarehouse*cfg.CustomersPerDistrict; got != want {
		t.Errorf("customers: %d, want %d", got, want)
	}
	if got, want := e.stock.Len(), cfg.Warehouses*cfg.Items; got != want {
		t.Errorf("stock: %d, want %d", got, want)
	}
	if got, want := e.item.Len(), cfg.Items; got != want {
		t.Errorf("items: %d, want %d", got, want)
	}
	if got, want := e.orders.Len(), cfg.Warehouses*cfg.DistrictsPerWarehouse*cfg.InitialOrdersPerDistrict; got != want {
		t.Errorf("orders: %d, want %d", got, want)
	}
	if e.newOrder.Len() == 0 {
		t.Error("no undelivered orders after load")
	}
	if e.sh.loadPages == 0 {
		t.Error("load allocated no pages")
	}
}

func TestTransactionsRunAndGrow(t *testing.T) {
	e := NewEngine(smallCfg())
	ordersBefore := e.orders.Len()
	pagesBefore := int(e.pool.Next())
	e.Run(3000)
	st := e.Stats()
	var total uint64
	for tx := TxNewOrder; tx <= TxStockLevel; tx++ {
		if st.TxCounts[tx] == 0 {
			t.Errorf("transaction %v never executed", tx)
		}
		total += st.TxCounts[tx]
	}
	if total != 3000 {
		t.Errorf("executed %d transactions, want 3000", total)
	}
	// The standard mix: New-Order ~45%, Payment ~43%.
	if frac := float64(st.TxCounts[TxNewOrder]) / 3000; frac < 0.40 || frac > 0.50 {
		t.Errorf("NewOrder fraction %.3f outside [0.40,0.50]", frac)
	}
	if e.orders.Len() <= ordersBefore {
		t.Error("orders table did not grow")
	}
	if int(e.pool.Next()) <= pagesBefore {
		t.Error("page universe did not grow (fill factor cannot rise)")
	}
	// Trees stay structurally sound under the full mix.
	for _, tr := range []Table{
		e.warehouse, e.district, e.customer, e.custName, e.orders,
		e.orderCust, e.newOrder, e.orderLine, e.history, e.item, e.stock,
	} {
		c, ok := tr.(interface{ CheckInvariants() error })
		if !ok {
			t.Fatalf("table %T exposes no invariant check", tr)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("tree invariant violated: %v", err)
		}
	}
}

func TestTraceShape(t *testing.T) {
	e := NewEngine(smallCfg())
	e.Run(4000)
	tr := e.Trace()
	if tr.Preload != e.sh.loadPages || tr.Universe < tr.Preload {
		t.Fatalf("trace header wrong: %+v loadPages=%d", tr, e.sh.loadPages)
	}
	if len(tr.Writes) == 0 {
		t.Fatal("empty run trace")
	}
	for _, w := range tr.Writes {
		if int(w) >= tr.Universe {
			t.Fatalf("write %d outside universe %d", w, tr.Universe)
		}
	}
	// The trace must be skewed: a small fraction of pages should receive a
	// large fraction of the writes (§6.3 likens it to 80-20).
	counts := make(map[uint32]int)
	for _, w := range tr.Writes {
		counts[w]++
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	top := freqs[:len(freqs)/5+1]
	sum, topSum := 0, 0
	for _, c := range freqs {
		sum += c
	}
	for _, c := range top {
		topSum += c
	}
	if frac := float64(topSum) / float64(sum); frac < 0.5 {
		t.Errorf("top 20%% of written pages got only %.2f of writes; trace not skewed", frac)
	}
}

func TestDeterministicTrace(t *testing.T) {
	run := func() []uint32 {
		e := NewEngine(smallCfg())
		e.Run(1500)
		return e.Trace().Writes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestCheckpointingWritesHotPages(t *testing.T) {
	// Without checkpoints the hottest pages (district rows) stay dirty in
	// the cache forever and never reach the trace.
	cfg := smallCfg()
	cfg.CheckpointEveryTx = 200
	e := NewEngine(cfg)
	e.Run(2000)
	if e.Stats().Pool.Flushes == 0 {
		t.Error("no checkpoint flushes recorded")
	}
	cfg.CheckpointEveryTx = -1 // disable (0 means default)
	e2 := NewEngine(cfg)
	e2.Run(2000)
	if got := e2.Stats().Pool.Flushes; got > e2.Stats().Pool.DirtyEvictions {
		t.Errorf("checkpointing was supposed to be off, flushes=%d", got)
	}
}

func TestNURandInRange(t *testing.T) {
	e := NewEngine(smallCfg())
	for i := 0; i < 10000; i++ {
		if c := e.randCustomer(); c < 1 || c > e.cfg.CustomersPerDistrict {
			t.Fatalf("randCustomer out of range: %d", c)
		}
		if it := e.randItem(); it < 1 || it > e.cfg.Items {
			t.Fatalf("randItem out of range: %d", it)
		}
		if d := e.randDistrict(); d < 1 || d > e.cfg.DistrictsPerWarehouse {
			t.Fatalf("randDistrict out of range: %d", d)
		}
	}
}

func TestKeyEncodingsDisjoint(t *testing.T) {
	// Composite keys must be injective over the configured ranges.
	seen := make(map[uint64]bool)
	for w := 1; w <= 3; w++ {
		for d := 1; d <= 10; d++ {
			k := keyDistrict(w, d)
			if seen[k] {
				t.Fatalf("district key collision at w=%d d=%d", w, d)
			}
			seen[k] = true
		}
	}
	seen = make(map[uint64]bool)
	for w := 1; w <= 2; w++ {
		for d := 1; d <= 10; d++ {
			for c := 1; c <= 100; c++ {
				k := keyCustomer(w, d, c)
				if seen[k] {
					t.Fatalf("customer key collision at %d/%d/%d", w, d, c)
				}
				seen[k] = true
			}
		}
	}
	// Order-line keys for distinct (o, ol) pairs.
	seen = make(map[uint64]bool)
	for o := uint64(1); o <= 50; o++ {
		for ol := 1; ol <= 15; ol++ {
			k := keyOrderLine(1, 1, o, ol)
			if seen[k] {
				t.Fatalf("order-line key collision at o=%d ol=%d", o, ol)
			}
			seen[k] = true
		}
	}
	// Latest-first order index: larger o sorts earlier.
	if keyOrderCust(1, 1, 5, 10) >= keyOrderCust(1, 1, 5, 9) {
		t.Error("orderCust key does not invert order ids")
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid config")
		}
	}()
	NewEngine(Config{Warehouses: -1})
}
