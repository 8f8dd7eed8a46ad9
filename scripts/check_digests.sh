#!/bin/sh
# Run every benchmark workload once untraced and once traced, at seeds 7
# and 11, and check each workload's canonical digest against the values
# below.  Exits at once with perfbench/run.py's status when a run fails (a
# failed check, or a name the tracer wraps that is gone); otherwise runs
# every workload, reports each digest that changed and then exits with 1.
# A refactor keeps all eight digests; a change that means to alter the
# reports updates them with the golden corpus.  It ends with a table of
# each run's workload, seed, digest and the traced pass's lpsolve.iters,
# the simplex pivots: these are not checked, as they may differ between
# BLAS kernels under the same digest.
#
#   sh scripts/check_digests.sh
set -u
cd "$(dirname "$0")/.."
changed=0
table=''
while read -r w seed expected; do
    status=0
    out=$(python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 0 --trace 1 </dev/null) || status=$?
    printf '%s\n' "$out"
    [ "$status" -eq 0 ] || exit "$status"
    got=$(printf '%s\n' "$out" | grep "^digest $w: " || true)
    if [ "$got" != "digest $w: $expected" ]; then
        echo "::error::$w seed-$seed digest changed: got '$got', expected $expected"
        changed=1
    fi
    iters=$(printf '%s\n' "$out" | sed -n 's/^lpsolve\.iters = \([0-9]*\).*/\1/p')
    table="$table$(printf '%-9s %4s  %-64s  %s' "$w" "$seed" "${got#"digest $w: "}" "$iters")
"
done <<'DIGESTS'
cut-grid 7 d1c2292107d13dadcc64e34da76bd8e7506b816ba204263b5f8a1b3d189a48b5
sat-grid 7 dfe2f17ff04a24c3246b2aa54b014ceab7cae42ff63a58a00ce27721efe3d876
sweep-bf 7 213e50e9c27ca6eea7c58d5aadf0971eaf267fbdde7e695107bbad2ea5662d69
card-grid 7 d3268a215b7921620244809302045d3f8fe2bb8378a0b58fdad307686bcde34a
cut-grid 11 839b4e90a6e5b7e73d5640c47e2995179417af0e1f6470e82b30f6042bebf7b8
sat-grid 11 2c05201f35e1ee79f065677379337624920abcdd1b2fd0d187307883ebd94204
sweep-bf 11 a62356b7ec0bba13bcecd8fc45c1390c1d6ad22445313f420058ab876607ac87
card-grid 11 9fecdd8451aa167f0c61d0d1f7a294798517ab1740a7be9958574dba64563bf6
DIGESTS
printf '\n%-9s %4s  %-64s  %s\n%s' workload seed digest lpsolve.iters "$table"
[ "$changed" -eq 0 ] || exit 1
echo "benchmark digests: ok"
