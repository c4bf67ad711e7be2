#!/usr/bin/env bash
# The performance gate: an A/B run of the workload benchmark on one host.
#
#   .github/bench-gate.sh <base-ref>
#
# Checks <base-ref> out as a git worktree under .bench_build/ and copies
# this checkout's nblperf/ and BENCHMARK.json over it, so both sides run
# the same benchmark code over their own repository code. Then runs
# nblperf's sample-uf20 workload on the base and on this checkout in
# alternating pairs, every run on the same seed, and prints
# `nblperf -agree <base> <change>` for that workload. Exits non-zero when
# a metric reads `worse` by more than BENCHMARK.json's bound, or when a
# run answers wrongly or cannot run; `unresolved` passes. DESIGN.md ("The
# performance gate") gives the reasons for the constants below.
set -euo pipefail

readonly workload=sample-uf20 seed=1 seconds=5 pairs=4

base_ref=${1:?usage: .github/bench-gate.sh <base-ref>}
root=$(git rev-parse --show-toplevel)
build="$root/.bench_build"
base="$build/gate-base"
results="$build/gate-results"

drop_base() {
	git -C "$root" worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
	git -C "$root" worktree prune
}
drop_base
trap drop_base EXIT
git -C "$root" worktree add --quiet --detach "$base" "$base_ref"
rm -rf "$base/nblperf" "$results"
cp -R "$root/nblperf" "$base/nblperf"
cp "$root/BENCHMARK.json" "$base/BENCHMARK.json"
# One Go build cache for both sides: the base then compiles only what
# differs instead of the whole standard library again.
mkdir -p "$build/gocache" "$base/.bench_build" "$results/base" "$results/change"
ln -s "$build/gocache" "$base/.bench_build/gocache"

run() { # run <side> <pair>
	local tree=$root
	[ "$1" = base ] && tree=$base
	echo "== pair $2: $1"
	bash "$tree/nblperf/run.sh" --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 -json "$results/$1/$2.json" | grep '^metric '
}
for pair in $(seq 1 "$pairs"); do
	if ((pair % 2)); then
		run base "$pair"
		run change "$pair"
	else
		run change "$pair"
		run base "$pair"
	fi
done

# -agree reads BENCHMARK.json from the working directory and rules on
# every workload it names; only this one ran.
cd "$root"
"$build/nblperf" -agree "$results/base" "$results/change" |
	awk -v w="$workload" 'NR == 1 || $2 == w'
