#!/bin/sh
# Run the README's command-line block (every line starting "smoothip ") in a
# temporary directory, and check that `smoothip solve` prints exactly the
# sample summary the README shows.  Then run the README's `sweep` line again
# with SMOOTHIP_WORKERS=2 and check that the worker pool writes the same CSV
# as the serial run.  Uses the `smoothip` on PATH; without one, it runs
# `python3 -m smoothip.cli` from this checkout's src/.
#
#   sh scripts/check_readme_cli.sh
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
readme="$root/README.md"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
if ! command -v smoothip > /dev/null 2>&1; then
    mkdir "$work/bin"
    printf '#!/bin/sh\nPYTHONPATH="%s/src" exec python3 -m smoothip.cli "$@"\n' \
        "$root" > "$work/bin/smoothip"
    chmod +x "$work/bin/smoothip"
    PATH="$work/bin:$PATH"
fi
cd "$work"
grep '^smoothip ' "$readme" > commands
while IFS= read -r cmd; do
    echo "+ $cmd"
    case "$cmd" in
        "smoothip solve "*) sh -c "$cmd" > solve.out ;;
        *) sh -c "$cmd" ;;
    esac
done < commands
sed -n '/^instance: demo /,/^eps records: /p' "$readme" > expected
test -s expected
diff expected solve.out
echo "README command-line block: ok"
sweep="$(grep '^smoothip sweep ' commands)"
table="$(printf '%s\n' "$sweep" | sed -n 's/.*--out \([^ ]*\).*/\1/p')"
test -s "$table"
mv "$table" serial.csv
echo "+ SMOOTHIP_WORKERS=2 $sweep"
SMOOTHIP_WORKERS=2 sh -c "$sweep"
diff serial.csv "$table"
echo "README sweep with 2 workers: ok"
