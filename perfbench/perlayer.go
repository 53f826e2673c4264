package main

import (
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
	"github.com/flipbit-sim/flipbit/internal/kvs"
)

// layerBase holds the layers' cumulative counters at the start of the
// traced window. Store and FTL counters restart at every mount, so they
// are summed over every instance mounted so far.
type layerBase struct {
	flash flash.Stats
	core  core.Stats
	kvs   kvs.Stats
	ftl   ftl.Stats
}

func snapshotLayers(w workload) layerBase {
	t := w.totals()
	b := layerBase{flash: t.Flash, core: t.Core}
	for _, s := range t.KVS {
		b.kvs.Compactions += s.Compactions
		b.kvs.ScanCandidates += s.ScanCandidates
		b.kvs.ScanFalsePositives += s.ScanFalsePositives
		b.kvs.TailPagesReplayed += s.TailPagesReplayed
	}
	for _, s := range t.FTL {
		b.ftl.Swaps += s.Swaps
		b.ftl.SwapWrites += s.SwapWrites
		b.ftl.Checkpoints += s.Checkpoints
		b.ftl.IntentErases += s.IntentErases
	}
	return b
}

// spanStats gathers the spans of one kind, optionally only those under a
// root of a given kind.
type spanStats struct {
	durUs, selfUs []float64
	bytes, erases int
}

func (l *ledger) collect(k spanKind, root func(spanKind) bool) spanStats {
	var s spanStats
	for i := range l.spans {
		sp := &l.spans[i]
		if sp.kind != k || root != nil && !root(l.rootKind(i)) {
			continue
		}
		s.durUs = append(s.durUs, float64(sp.dur())/1e3)
		s.selfUs = append(s.selfUs, float64(l.self(i))/1e3)
		s.bytes += int(sp.bytes)
		s.erases += int(l.inclErases[i])
	}
	return s
}

func rootIs(kinds ...spanKind) func(spanKind) bool {
	return func(k spanKind) bool {
		for _, x := range kinds {
			if k == x {
				return true
			}
		}
		return false
	}
}

// perLayer derives the per-layer metrics of the traced window. Every
// metric is reported on every workload; a layer that does no work on a
// workload reports 0.
func perLayer(w workload, base layerBase, l *ledger, rec *recorder, m *meter) map[string]metric {
	end := snapshotLayers(w)
	ops := float64(len(m.opHost))
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// kvs and isc, from the Store spans and the backend spans under them.
	kv, _ := w.(*kvWorkload)
	var puts, gets, scans, mounts, gcPuts, userBytes, results float64
	if kv != nil {
		puts, gets, scans, mounts = float64(kv.puts), float64(kv.gets), float64(kv.scans), float64(kv.mounts)
		gcPuts, userBytes, results = float64(kv.gcPuts), float64(kv.userBytes), float64(kv.scanResults)
	}
	user := rootIs(spanPut, spanGet, spanDelete, spanScan, spanMount)
	put := l.collect(spanPut, nil)
	set("kvs.put_self_us_p50", median(put.selfUs), "us")
	set("kvs.put_self_us_p99", pct(put.selfUs, 0.99), "us")
	set("kvs.get_self_us_p50", median(l.collect(spanGet, nil).selfUs), "us")
	set("kvs.scan_self_us_p50", median(l.collect(spanScan, nil).selfUs), "us")
	var mountSelf []float64
	var mountErases int
	if kv != nil {
		mnt := l.collect(spanMount, nil)
		mountSelf, mountErases = mnt.selfUs, mnt.erases
	}
	set("kvs.mount_self_ms", median(mountSelf)/1e3, "ms")
	set("kvs.gc_put_share", ratio(gcPuts, puts), "ratio")
	set("kvs.compactions_per_kop", ratio(float64(end.kvs.Compactions-base.kvs.Compactions)*1000, ops), "count/kop")
	written := l.collect(spanBackendWrite, rootIs(spanPut, spanDelete)).bytes +
		l.collect(spanBackendProgramByte, rootIs(spanPut, spanDelete)).bytes
	set("kvs.write_amp", ratio(float64(written), userBytes), "ratio")
	set("kvs.backend_reads_per_get", ratio(float64(len(l.collect(spanBackendRead, rootIs(spanGet)).durUs)), gets), "count/op")
	set("kvs.tail_pages_replayed_per_mount", ratio(float64(end.kvs.TailPagesReplayed-base.kvs.TailPagesReplayed), mounts), "count/mount")
	set("kvs.mount_erases", ratio(float64(mountErases), mounts), "count/mount")
	cand := float64(end.kvs.ScanCandidates - base.kvs.ScanCandidates)
	set("kvs.scan_candidates_per_result", ratio(cand, results), "ratio")
	set("kvs.scan_false_positive_share", ratio(float64(end.kvs.ScanFalsePositives-base.kvs.ScanFalsePositives), cand), "ratio")

	sense := l.collect(spanBackendSenseMulti, rootIs(spanScan))
	set("isc.senses_per_scan", ratio(float64(len(sense.durUs)), scans), "count/op")
	set("isc.pages_sensed_per_sense", ratio(float64(sense.bytes), float64(len(sense.durUs))), "count")
	set("isc.sense_us_per_scan", ratio(sum(sense.durUs), scans), "us")
	set("isc.index_programs_per_put", ratio(float64(len(l.collect(spanBackendProgramByte, rootIs(spanPut)).durUs)), puts), "count/op")

	// core: backend calls under the store, or the bare-device frame replay.
	coreW, coreR := l.collect(spanBackendWrite, user), l.collect(spanBackendRead, user)
	replayW := l.collect(spanReplayWrite, nil)
	if fw, ok := w.(*frameWorkload); ok {
		coreW, coreR = replayW, l.collect(spanReplayRead, nil)
		set("core.stored_mae", ratio(float64(fw.errSum), float64(fw.values)), "value")
	} else {
		set("core.stored_mae", 0, "value")
	}
	set("core.write_us_mean", mean(coreW.durUs), "us")
	set("core.read_us_mean", mean(coreR.durUs), "us")
	set("core.frame_write_us_p50", median(replayW.durUs), "us")
	dc := end.core
	approxPages := float64(dc.PagesApprox - base.core.PagesApprox)
	set("core.approx_page_share", ratio(approxPages, approxPages+float64(dc.PagesExact-base.core.PagesExact)), "ratio")
	set("core.values_approximated_share", ratio(float64(dc.ValuesApproximated-base.core.ValuesApproximated),
		float64(dc.ValuesTotal-base.core.ValuesTotal)), "ratio")

	// approx and ftl, on frame-capture.
	frames := float64(len(replayW.durUs))
	set("approx.encode_ns_per_value", ratio(sum(l.collect(spanReplayEncode, nil).durUs)*1e3, frames*frameBytes), "ns")
	ftlW := l.collect(spanFTLWrite, nil)
	set("ftl.write_us_p50", median(ftlW.durUs), "us")
	set("ftl.overhead_us_per_frame_est", ratio(sum(ftlW.durUs)-sum(replayW.durUs), frames), "us")
	nf := float64(len(ftlW.durUs))
	df := end.ftl
	swapWrites := float64(df.SwapWrites - base.ftl.SwapWrites)
	set("ftl.swaps_per_kframe", ratio(float64(df.Swaps-base.ftl.Swaps)*1000, nf), "count/kframe")
	set("ftl.swap_write_share", ratio(swapWrites, nf*float64(frameBytes/flash.DefaultSpec().PageSize)+swapWrites), "ratio")
	set("ftl.journal_ops_per_kframe", ratio(float64(df.Checkpoints-base.ftl.Checkpoints+df.IntentErases-base.ftl.IntentErases)*1000, nf), "count/kframe")

	// flash, from the observer's events over the whole traced window.
	k := &rec.kinds
	var busy time.Duration
	events := 0
	for i := range k {
		busy += k[i].busy
		events += k[i].events
	}
	prog, skip := float64(k[flash.OpProgram].bytes), float64(k[flash.OpProgramSkip].bytes)
	set("flash.program_bytes_per_op", ratio(prog, ops), "B/op")
	set("flash.program_skip_share", ratio(skip, prog+skip), "ratio")
	share := func(kind flash.OpKind) float64 { return ratio(float64(k[kind].busy), float64(busy)) }
	set("flash.erase_busy_share", share(flash.OpErase), "ratio")
	set("flash.program_busy_share", share(flash.OpProgram), "ratio")
	set("flash.read_busy_share", share(flash.OpRead), "ratio")
	set("flash.sense_busy_share", share(flash.OpSense), "ratio")
	set("flash.events_per_op", ratio(float64(events), ops), "count/op")
	return out
}
