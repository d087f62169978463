.PHONY: all build test verify qcheck-soak bench bench-smoke bench-diff verdicts chaos chaos-crash chaos-disk chaos-churn chaos-failover chaos-heal chaos-intrude chaos-frame chaos-nemesis calibrate crash-matrix journal-fuzz doc ci clean

all: build

CLI = dune exec bin/enclaves_cli.exe --

# Every seeded soak the Makefile runs, one variable per invocation: the
# chaos-*/calibrate targets below and `verdicts` share these.
SOAK_CHAOS = chaos --members 5 --seeds 20 --loss 0.20
SOAK_CHAOS_CRASH = chaos --members 5 --seeds 10 --loss 0.05 \
  --crash-at 2 --restart-after 1 --until 30
SOAK_CHAOS_DISK = $(SOAK_CHAOS_CRASH) --torn 0.05 --drop-fsync 0.10 --eio 0.05
SOAK_CHURN = churn --members 5 --seeds 5 --rounds 6
SOAK_CHURN_STALE = $(SOAK_CHURN) --deliver-stale --epoch-window 0
SOAK_FAILOVER = failover --members 5 --seeds 10 \
  --loss 0.10 --kill-primary-at 1 --until 15
SOAK_FAILOVER_LAG = failover --members 5 --seeds 5 \
  --loss 0.05 --kill-primary-at 1 --repl-lag 150 --until 15
SOAK_FAILOVER_COLD = failover --members 5 --seeds 5 \
  --loss 0.10 --kill-primary-at 1 --until 20 --cold
SOAK_HEAL = failover --members 5 --seeds 10 \
  --kill-primary-at 0 --partition-primary-at 0.6 --heal-after 2.4 \
  --loss 0.05 --until 12
SOAK_HEAL_COLD = failover --members 5 --seeds 5 \
  --kill-primary-at 0 --partition-primary-at 0.6 --heal-after 2.4 \
  --loss 0.05 --until 15 --cold
SOAK_INTRUDE_A1 = intrude a1-flood --seeds 5
SOAK_INTRUDE_A2 = intrude a2-forge --seeds 5
SOAK_INTRUDE_A3 = intrude a3-replay --seeds 5
SOAK_FRAME_REPLAY = intrude frame-replay --seeds 5
SOAK_FRAME_FLOOD = intrude frame-flood --seeds 5
SOAK_NEMESIS = nemesis --seeds 5
SOAK_NEMESIS_WEDGE = nemesis --seeds 5 --no-degrade --expect-wedge
SOAK_CALIBRATE = calibrate

# The soaks that merge rows into a trajectory file (--out).
SOAK_MERGING = NEMESIS NEMESIS_WEDGE CALIBRATE
SOAKS = CHAOS CHAOS_CRASH CHAOS_DISK CHURN CHURN_STALE FAILOVER \
  FAILOVER_LAG FAILOVER_COLD HEAL HEAL_COLD INTRUDE_A1 INTRUDE_A2 \
  INTRUDE_A3 FRAME_REPLAY FRAME_FLOOD $(SOAK_MERGING)

build:
	dune build

test:
	dune runtest

# The five bounded models (the §4 model, recovery, delivery, sentinel
# and legacy planes) through both model-checker surfaces: each must
# exit 0, i.e. every obligation holds on an exhaustive (untruncated)
# exploration and the legacy model rediscovers every §2.3 attack.
verify:
	$(CLI) verify --legacy
	dune exec examples/model_check.exe

# Every qcheck property at its long count (QCHECK_LONG=1 multiplies
# each runtime-heavy property's count by its long factor), on a fresh
# random seed every run: QCHECK_SEED is deliberately left unpinned, so
# seed luck cannot keep hiding a violation.
qcheck-soak:
	QCHECK_LONG=1 dune exec test/test_main.exe

bench:
	dune exec bench/main.exe

# One iteration of every bench — a ~2 s sanity check that the harness
# and every scenario it constructs still run.
bench-smoke:
	dune exec bench/main.exe -- --smoke

# Seeded fault-injection sweep: 5-member joins at 20% loss must
# converge (bounded virtual time, fixed seeds — fully deterministic).
chaos:
	$(CLI) $(SOAK_CHAOS)

# Crash-recovery sweep: kill the leader mid-session under loss, warm
# restart from the journal — every seed must reconverge with views in
# agreement (the anti-entropy layer's job).
chaos-crash:
	$(CLI) $(SOAK_CHAOS_CRASH)

# Crash-recovery under a faulty disk as well: torn writes, dropped
# fsyncs and transient EIO injected into the journal's write path while
# the leader crashes and restarts from the durable image.
chaos-disk:
	$(CLI) $(SOAK_CHAOS_DISK)

# Churn soak (E22): members cycle through evicted-as-silent and back
# while the leader rekeys periodically — every queued record must be
# delivered exactly once (in-window), rejected (beyond-window), or
# delivered flagged stale with no state effect; queues must drain to
# zero after the churn stops, and depth stays bounded throughout.
# Both policy arms, five seeds each.
chaos-churn:
	$(CLI) $(SOAK_CHURN)
	$(CLI) $(SOAK_CHURN_STALE)

# Warm-standby failover sweep: kill the primary of a 3-manager group
# under loss, with the replication links additionally lagged — the
# successor must promote warm from its replica and every member must
# end the run in session. The cold arm is the baseline the warm path
# is measured against (E20).
chaos-failover:
	$(CLI) $(SOAK_FAILOVER)
	$(CLI) $(SOAK_FAILOVER_LAG)
	$(CLI) $(SOAK_FAILOVER_COLD)

# Partition-heal sweep (E21): cut the primary off instead of killing
# it, let the successor warm-promote, then heal — the stale primary
# must demote on the successor's higher term and rejoin as a
# catching-up backup, with zero member re-handshakes forced by the
# heal itself. Every seed must end converged with demotions=1.
chaos-heal:
	$(CLI) $(SOAK_HEAL)
	$(CLI) $(SOAK_HEAL_COLD)

# Insider-campaign sweep (E23): a compromised member runs each attack
# arm — pre-auth flood (A1), expired-key forgery (A2), own-traffic
# replay (A3) — against the online sentinel. Every seed must end with
# the insider quarantined or expelled, an emergency rekey sealing the
# group against every key it ever held, and legitimate joins riding
# through the flood at >=95%.
chaos-intrude:
	$(CLI) $(SOAK_INTRUDE_A1)
	$(CLI) $(SOAK_INTRUDE_A2)
	$(CLI) $(SOAK_INTRUDE_A3)

# Framing sweep (E24): a wire-level outsider replays the victim's own
# captured frames and floods junk under the victim's name. Every seed
# must end with the honest victim BELOW quarantine, the wire contained
# (scored to quarantine or door-dropped), 100% legitimate joins, and
# the trace sealed.
chaos-frame:
	$(CLI) $(SOAK_FRAME_REPLAY)
	$(CLI) $(SOAK_FRAME_FLOOD)

# Omni-fault nemesis soak (E25): packet loss + torn writes + ENOSPC +
# a persistent fsync stall + an insider pre-auth flood + a leader
# crash, all in one 20s schedule. The degraded-mode ladder must carry
# every seed through (no wedge, 100% legitimate joins, reconverged
# view, Healthy at the end, every shed record durably marked); the
# --no-degrade baseline must demonstrably wedge on the same schedule.
chaos-nemesis:
	$(CLI) $(SOAK_NEMESIS)
	$(CLI) $(SOAK_NEMESIS_WEDGE)

# Adversarial calibration sweep (E24): every intruder arm plus a
# clean-chaos control at each sentinel tuning point; fails unless the
# shipped defaults dominate the no-attribution baseline on the
# detection-vs-false-positive frontier. Merges the frontier into
# BENCH_results.json.
calibrate:
	$(CLI) $(SOAK_CALIBRATE)

# Timing regression gate: three reduced-quota bench runs scored as the
# per-group minimum, diffed against the committed *fast* reference
# (same quotas — the full-run reference in BENCH_results.json measures
# tiny micro-benches with a different bias, so the gate compares
# like-for-like). Min-of-3 absorbs per-run scheduler/GC noise, and the
# 2x threshold absorbs machine-wide load spikes on the shared
# single-core CI container (whole runs occasionally slow down 50%+
# uniformly) — the gate is a tripwire for real regressions (an
# accidental O(n^2), a lost fast path) in any group's geometric-mean
# ns/op, not a precision instrument.
bench-diff:
	dune exec bench/main.exe -- --fast --out /tmp/BENCH_fast.1.json
	dune exec bench/main.exe -- --fast --out /tmp/BENCH_fast.2.json
	dune exec bench/main.exe -- --fast --out /tmp/BENCH_fast.3.json
	dune exec bench/diff.exe -- BENCH_results.fast.json \
	  /tmp/BENCH_fast.1.json,/tmp/BENCH_fast.2.json,/tmp/BENCH_fast.3.json \
	  --max-regression 1.0

# Every soak above with --json, stdout and exit status collected in
# _build/verdicts.txt (merging soaks write to _build/verdicts.*.json,
# never to BENCH_results.json). Seeded runs are deterministic, so a
# refactor that must keep every verdict is checked by diffing this file
# against the one built at the parent commit. Not part of `ci`.
VERDICTS = _build/verdicts.txt

verdicts: build
	@: > $(VERDICTS)
	@$(foreach s,$(SOAKS),\
	  echo "== $(strip $(SOAK_$(s)))" >> $(VERDICTS); \
	  ./_build/default/bin/enclaves_cli.exe $(SOAK_$(s)) --json \
	    $(if $(filter $(s),$(SOAK_MERGING)),--out _build/verdicts.$(s).json) \
	    >> $(VERDICTS); \
	  echo "exit $$?" >> $(VERDICTS);)
	@echo "verdicts: $(words $(SOAKS)) soaks -> $(VERDICTS)"

# ALICE-style crash-point enumeration: every disk image a crash could
# leave behind (boundaries + torn-write prefixes) must replay without
# an exception, without resurrecting a closed session, and without
# regressing the group-key epoch; acknowledged writes must survive.
crash-matrix:
	dune exec bin/enclaves_cli.exe -- crash-matrix --appends 24 --compact-every 8

# The record logs' totality properties (truncation/bit-flip recovery;
# the journal's in `journal`, the delivery queue's with its unit tests
# in `delivery`) plus the crash-recovery scenarios and the storage
# layer, as a focused filter over the test tree.
journal-fuzz:
	dune exec test/test_main.exe -- test journal
	dune exec test/test_main.exe -- test delivery
	dune exec test/test_main.exe -- test recovery
	dune exec test/test_main.exe -- test store

# API docs — only where odoc is installed; CI images without it skip.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc; \
	else \
	  echo "doc: odoc not installed, skipping"; \
	fi

ci: build test verify qcheck-soak bench-smoke bench-diff chaos chaos-crash chaos-disk chaos-churn chaos-failover chaos-heal chaos-intrude chaos-frame chaos-nemesis crash-matrix journal-fuzz doc

clean:
	dune clean
