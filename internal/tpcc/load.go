package tpcc

import "sync/atomic"

// load populates the database per the (scaled) TPC-C population rules and
// commits, establishing the preload boundary of the trace (in-memory
// backend) or the first durable batch (external backend).
func (e *Engine) load() {
	cfg := e.cfg
	for i := 1; i <= cfg.Items; i++ {
		e.put(e.item, keyItem(i), e.pad(rowItem))
	}
	e.sh.nextOID = make([]atomic.Uint64, (cfg.Warehouses+1)*(cfg.DistrictsPerWarehouse+1))
	for w := 1; w <= cfg.Warehouses; w++ {
		e.put(e.warehouse, keyWarehouse(w), e.pad(rowWarehouse))
		for i := 1; i <= cfg.Items; i++ {
			e.put(e.stock, keyStock(w, i), e.pad(rowStock))
		}
		for d := 1; d <= cfg.DistrictsPerWarehouse; d++ {
			e.put(e.district, keyDistrict(w, d), e.pad(rowDistrict))
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				e.put(e.customer, keyCustomer(w, d, c), e.pad(rowCustomer))
				// Population rule: the first customers get NURand names so
				// name lookups hit multiple customers per bucket.
				h := lastNameHash(uint64(c-1)*17 + e.sh.cLast)
				e.put(e.custName, keyCustName(w, d, h, c), e.pad(rowIndex))
				e.put(e.history, e.sh.histSeq.Add(1)-1, e.pad(rowHistory))
			}
			// Initial orders: one per customer in permuted order, the last
			// third still undelivered (in new-order), per the spec.
			n := cfg.InitialOrdersPerDistrict
			for o := 1; o <= n; o++ {
				c := (o*7)%cfg.CustomersPerDistrict + 1
				oid := e.takeOID(w, d)
				e.put(e.orders, keyOrder(w, d, oid), e.pad(rowOrder))
				e.put(e.orderCust, keyOrderCust(w, d, c, oid), e.pad(rowIndex))
				lines := 5 + int(oid%11)
				for ol := 1; ol <= lines; ol++ {
					e.put(e.orderLine, keyOrderLine(w, d, oid, ol), e.pad(rowOrderLine))
				}
				if 3*o > 2*n {
					e.put(e.newOrder, keyNewOrder(w, d, oid), e.pad(rowNewOrder))
				}
			}
		}
	}
	e.commit()
	if e.pool != nil {
		e.sh.loadPages = int(e.pool.Next())
		e.sh.loadWrites = len(e.pool.Writes())
	}
}

// takeOID returns the next order id for a district and advances it.
func (e *Engine) takeOID(w, d int) uint64 {
	return e.sh.nextOID[w*(e.cfg.DistrictsPerWarehouse+1)+d].Add(1)
}

// lastOID returns the most recently assigned order id for a district.
func (e *Engine) lastOID(w, d int) uint64 {
	return e.sh.nextOID[w*(e.cfg.DistrictsPerWarehouse+1)+d].Load()
}
