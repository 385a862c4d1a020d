package ftc

import "repro/internal/core"

// Session amortizes many connectivity probes that share one fault set — the
// common deployment pattern (one failure event, many "can I reach X?"
// probes). It is a FaultSet with every component's fragment closure forced
// eagerly, so each probe is a constant-size, allocation-free lookup.
// Sessions are built from labels only, like every decoder-side object in
// this package: build one with FaultSet.Session, which covers every
// spanning-forest component the faults touch.
type Session = core.Session
