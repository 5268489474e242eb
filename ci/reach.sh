#!/usr/bin/env bash
# The reach ledger: which product functions do the entry points never run?
#
# The entry points (tigabench, allocprof and the four examples) are built with
# -cover -coverpkg=tiga/... and run with GOCOVERDIR set; every function left
# at 0 % must be named in ci/reach-allow.txt with the reason it stays, and
# every line there must still name an unreached function, so the list only
# shrinks.
#
#   ci/reach.sh build      build the instrumented entry points into $REACH/bin
#                          and empty $REACH/cov
#   ci/reach.sh smokes     run the examples, the flag smokes, the bad-input
#                          exits and every allocprof shape
#   ci/reach.sh versiongc  run localreads with version GC on and fail unless
#                          every snapshot-read check entry reads ok
#   ci/reach.sh check      print "reach: N of M functions" and fail on an
#                          unreached function the allowlist does not name, or
#                          on an allowlist line that names no unreached one
#   ci/reach.sh all        build, the quick -exp all sweep, smokes, versiongc,
#                          check (about 8 min on 2 cores)
#
# Every run writes its counters under GOCOVERDIR=$REACH/cov; $REACH defaults
# to /tmp/reach. The allowlist has one "file:func reason" line per function:
# file is relative to the module root and func is Type.Method for a method.
set -euo pipefail

REACH=${REACH:-/tmp/reach}
BIN=$REACH/bin
export GOCOVERDIR=$REACH/cov

entries="cmd/tigabench cmd/allocprof examples/quickstart examples/banking examples/ticketing examples/tpcc"

build() {
	rm -rf "$BIN" "$GOCOVERDIR"
	mkdir -p "$BIN" "$GOCOVERDIR"
	for e in $entries; do
		go build -cover -coverpkg=tiga/... -o "$BIN/$(basename "$e")" "./$e"
	done
}

# expect_fail runs a command that must exit non-zero.
expect_fail() {
	if "$@" >/dev/null 2>&1; then
		echo "expected non-zero exit: $*" >&2
		exit 1
	fi
}

smokes() {
	for ex in quickstart banking ticketing tpcc; do
		"$BIN/$ex" >/dev/null
	done
	tb=$BIN/tigabench
	"$tb" -knobs >/dev/null
	for l in -exp -topo -workload -chaos; do
		"$tb" "$l" list >/dev/null
	done
	"$tb" -exp fig9 -quick -keys 2000 -set Tiga.delta=20ms -set Janus.fast-path=false \
		-op 2PL+Paxos=500,200 >/dev/null
	"$tb" -exp table1 -quick -keys 1000 -seed 42 -trace "$REACH/trace.json" >/dev/null
	"$tb" -exp fig12 -quick -keys 1000 -format csv >/dev/null
	expect_fail "$tb" -exp nosuch
	expect_fail "$tb" -protocols nosuch -exp fig9 -quick
	expect_fail "$tb" -set Tiga.nosuch=1 -exp fig9 -quick
	expect_fail "$tb" -set Tiga.delta=abc -exp fig9 -quick
	expect_fail "$tb" -set Detock.ddr-scan=0 -exp fig9 -quick
	expect_fail "$tb" -format xml -exp fig9 -quick
	expect_fail "$tb" -op Tiga@nosuch=100 -exp scenarios -quick
	ap=$BIN/allocprof
	for s in $("$ap" -shape list | awk '{ print $1 }'); do
		"$ap" -shape "$s@0.02" -out "$REACH/alloc.out" >/dev/null
	done
	"$ap" -shape tiga-micro-sat@0.02 -out "$REACH/alloc.out" -liveheap "$REACH/live.out" >/dev/null
	"$ap" -shape budget/closed-tpcc@0.02 -window 2 -out "$REACH/alloc.out" >/dev/null
	expect_fail "$ap" -shape nosuch -out "$REACH/alloc.out"
}

check() {
	go tool covdata textfmt -i="$GOCOVERDIR" -o "$REACH/reach.cov"
	go tool cover -func="$REACH/reach.cov" | awk -v allow=ci/reach-allow.txt '
		BEGIN {
			while ((getline line < allow) > 0) {
				if (line ~ /^[ \t]*(#|$)/) continue
				split(line, f, " ")
				reason = substr(line, length(f[1]) + 2)
				if (reason !~ /^(test hook|interface method|bench API): [^ ]/) {
					printf "%s: the reason must start with \"test hook:\", \"interface method:\" or \"bench API:\"\n", f[1] > "/dev/stderr"
					bad = 1
				}
				listed[f[1]] = 1; nlisted++
			}
		}
		$1 == "total:" { next }
		{
			file = $1; sub(/^tiga\//, "", file)
			ln = file; sub(/:$/, "", ln); sub(/^.*:/, "", ln); sub(/:[0-9]+:$/, "", file)
			# A method is named Type.Method: read its receiver off the source line.
			if (!(file in seen)) {
				seen[file] = 1
				for (n = 1; (getline l < file) > 0; n++) lines[file, n] = l
				close(file)
			}
			src = lines[file, ln]
			name = $2
			if (src ~ /^func \(/) {
				recv = src; sub(/^func \(/, "", recv); sub(/\).*/, "", recv); sub(/\[.*/, "", recv)
				k = split(recv, w, " "); recv = w[k]; sub(/^\*/, "", recv)
				name = recv "." name
			}
			key = file ":" name
			total++
			if ($3 != "0.0%") { reached++; if (key in listed) stale[key] = 1; next }
			unreached[key] = 1
			if (!(key in listed)) { printf "unreached and not allowlisted: %s\n", key > "/dev/stderr"; bad = 1 }
		}
		END {
			for (k in stale) if (!(k in unreached)) { printf "allowlisted but reached: %s\n", k > "/dev/stderr"; bad = 1 }
			for (k in listed) if (!(k in unreached) && !(k in stale)) { printf "allowlisted but no such function: %s\n", k > "/dev/stderr"; bad = 1 }
			printf "reach: %d of %d functions (%d unreached, allowlisted: %d)\n", reached, total, total - reached, nlisted
			exit bad
		}'
}

versiongc() {
	"$BIN/tigabench" -exp localreads -quick -keys 800 -seed 42 \
		-set Tiga.version-gc=true -set 2PL+Paxos.version-gc=true -set OCC+Paxos.version-gc=true |
		tee "$REACH/versiongc.txt"
	# Each check line is "snapshot-read check[ under partition] — P@x: ok (...); P@y: ok (...)".
	awk '/snapshot-read check/ {
			k = split(substr($0, index($0, "— ") + length("— ")), e, "; ")
			for (i = 1; i <= k; i++) { n++; if (e[i] !~ /^[^:]+: ok /) { print "version-gc: " e[i] > "/dev/stderr"; bad = 1 } }
		}
		END { if (n == 0 || bad) { print "version-gc: " n " snapshot-read check entries, not all ok" > "/dev/stderr"; exit 1 } }' "$REACH/versiongc.txt"
}

case ${1:-} in
build) build ;;
smokes) smokes ;;
check) check ;;
versiongc) versiongc ;;
all)
	build
	"$BIN/tigabench" -exp all -quick -keys 1000 -seed 42 -format json -out "$REACH/BENCH.json"
	smokes
	versiongc
	check
	;;
*)
	echo "usage: $0 build|smokes|versiongc|check|all" >&2
	exit 2
	;;
esac
