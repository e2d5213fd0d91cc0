#!/bin/sh
# Writes the deterministic JSON report of every registry gadget that runs
# without --full, at its design order, for every notion x engine x --jobs
# value, one file per run:
#
#   OUTDIR/<gadget>.<notion>.<engine>.j<jobs>.json
#
# Two trees written by different builds (or twice by one build) compare
# with `diff -r`: verdicts, witnesses and --deterministic-report bytes must
# not depend on the build that produced them, nor on the run.
#
# Usage: tools/report_matrix.sh SANI OUTDIR
#   SANI     path to the sani binary
#   OUTDIR   output directory (created if missing)
# Environment (optional, space-separated lists):
#   ENGINES  engines to run (default: direct mapi lil map fujita)
#   JOBS     --jobs values to run (default: 1 4)
#
# LIL and MAP are skipped on keccak-2 (design order 2): their region scans
# take about ten seconds per run there.  keccak-3 and dom-4 are the --full
# gadgets and are left out.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 SANI OUTDIR" >&2
  exit 64
fi
sani=$1
out=$2
engines=${ENGINES:-direct mapi lil map fujita}
jobs_list=${JOBS:-1 4}
mkdir -p "$out"

for gadget in $("$sani" list); do
  case $gadget in keccak-3|dom-4) continue ;; esac
  for notion in probing ni sni pini; do
    for engine in $engines; do
      case $gadget.$engine in keccak-2.lil|keccak-2.map) continue ;; esac
      for jobs in $jobs_list; do
        file=$out/$gadget.$notion.$engine.j$jobs.json
        # Exit status 1 is an insecure verdict, a valid report.
        status=0
        "$sani" verify --gadget "$gadget" --notion "$notion" \
          --engine "$engine" --jobs "$jobs" --deterministic-report \
          --format json > "$file" || status=$?
        if [ "$status" -gt 1 ]; then
          echo "$0: $gadget $notion $engine --jobs $jobs exited $status" >&2
          exit 1
        fi
      done
    done
  done
done
