package coherence

import "repro/internal/addrspace"

// tracef forwards one protocol debug record to the obs.LineLog
// configured on the controller (L1Config.Log / HomeConfig.Log). The
// log replaces the old package-global TraceLine: line tracing is
// per-machine configuration now, so parallel experiment runs cannot
// race on a shared global and a traced run needs no teardown. The
// output format is unchanged (obs.LineLog reproduces the legacy
// "[%8d] line %#x: ..." lines byte for byte), and both methods are
// no-ops after one nil comparison when no log is configured. Their
// arguments are boxed at the call site even then, so hot-path calls
// that pass a slice or a full-width value sit behind a `Log != nil`
// guard to keep the untraced path allocation-free.
func (l *L1Ctrl) tracef(now uint64, line addrspace.Line, format string, args ...any) {
	l.cfg.Log.Printf(now, line, format, args...)
}

func (h *HomeCtrl) tracef(now uint64, line addrspace.Line, format string, args ...any) {
	h.cfg.Log.Printf(now, line, format, args...)
}
