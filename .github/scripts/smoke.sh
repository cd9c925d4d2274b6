#!/bin/sh
# Runs the shipped networked commands together: volgen writes a small
# jet dataset, a viewer connects to displaydaemon, renderserver renders
# the dataset through the daemon, and the viewer saves what arrives.
# Fails unless the viewer saves 4 PNG frames. SMOKE_ADDR picks the
# daemon address (default 127.0.0.1:7420). Run from anywhere in the
# repository:
#
#	sh .github/scripts/smoke.sh
set -eu
cd "$(dirname "$0")/../.."
addr=${SMOKE_ADDR:-127.0.0.1:7420}
T=$(mktemp -d)
pids=
trap 'kill $pids 2>/dev/null; rm -rf "$T"' EXIT

go build -o "$T/bin/" ./cmd/volgen ./cmd/displaydaemon ./cmd/viewer ./cmd/renderserver
"$T/bin/volgen" -dataset jet -scale 0.2 -steps 4 -o "$T/jet.tvv"

"$T/bin/displaydaemon" -listen "$addr" >"$T/daemon.log" &
pids=$!
i=0
until grep -q listening "$T/daemon.log"; do
	i=$((i + 1))
	[ "$i" -le 100 ] || { echo "smoke: daemon did not start" >&2; exit 1; }
	sleep 0.1
done

# The plain daemon forwards frames only to displays already connected,
# so the viewer starts first and gets a second to connect.
timeout 60 "$T/bin/viewer" -daemon "$addr" -frames 4 -save "$T/out" &
viewer=$!
pids="$pids $viewer"
sleep 1
timeout 60 "$T/bin/renderserver" -daemon "$addr" -dataset "$T/jet.tvv" -steps 4 -p 4 -l 2 -size 64
wait "$viewer"

n=$(find "$T/out" -name '*.png' | wc -l)
[ "$n" -eq 4 ] || { echo "smoke: viewer saved $n PNG frames, want 4" >&2; exit 1; }
echo "smoke: viewer saved $n PNG frames"
