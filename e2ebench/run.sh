#!/usr/bin/env bash
# Builds flexray-serve the way CI ships it (with -pgo=default.pgo while
# that profile exists), the benchmark client and the host reference,
# then runs the client with the given arguments. Run from the repository
# root:
#
#   bash e2ebench/run.sh -workload campaign-tt -seed 2 -seconds 50 -trace 1
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/flexray-serve || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/flexray-serve and e2ebench/ are needed)" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build/e2ebench
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

pgo=()
if [[ -f default.pgo ]]; then
	pgo=(-pgo="$root/default.pgo")
fi
go build "${pgo[@]}" -o "$out/flexray-serve" ./cmd/flexray-serve
(cd e2ebench && go build "${pgo[@]}" -o "$out/e2ebench" .)
# The host reference is built without the profile: nothing in the
# repository may change the work it times.
(cd e2ebench/hostref && go build -o "$out/hostref" .)
exec "$out/e2ebench" -server "$out/flexray-serve" -hostref "$out/hostref" -work-dir "$out" "$@"
