#!/bin/sh
# Run the README's command-line block (every line starting "smoothip ") in a
# temporary directory, and check that `smoothip solve` prints exactly the
# sample summary the README shows.  Needs `smoothip` on PATH.
#
#   sh scripts/check_readme_cli.sh
set -eu
readme="$(cd "$(dirname "$0")/.." && pwd)/README.md"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
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
