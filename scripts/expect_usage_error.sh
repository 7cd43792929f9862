#!/bin/sh
# Usage: expect_usage_error.sh MESSAGE COMMAND [ARG...]
#
# Runs COMMAND and passes when it exits 2 (a usage error) and its
# standard error contains MESSAGE as a fixed string. The CTests
# `clfuzz_rejects_*` and `table4_rejects_*` use it, so a rejected flag
# is pinned to both its message and its exit status.
if [ $# -lt 2 ]; then
  echo "usage: $0 MESSAGE COMMAND [ARG...]" >&2
  exit 64
fi
Message=$1
shift
Err=$("$@" 2>&1 >/dev/null)
Status=$?
printf '%s\n' "$Err"
if [ "$Status" -ne 2 ]; then
  echo "expected exit status 2, got $Status" >&2
  exit 1
fi
case $Err in
  *"$Message"*) exit 0 ;;
esac
echo "standard error lacks: $Message" >&2
exit 1
