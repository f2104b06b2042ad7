#!/usr/bin/env python3
"""Write a damaged copy of a machine snapshot, for restore-path checks.

Usage:
    python3 scripts/corrupt_snapshot.py count IN OUT
    python3 scripts/corrupt_snapshot.py truncate IN OUT

count     sets the first core port's prefetched-lines count (the u64
          after that port's two "prefetcher" sections) to 2**62.
truncate  keeps the first half of the file.

Resuming either file (`sstsim ... resume=OUT`) must fail with exit
code 65 and a "snapshot:" message, never abort.
"""

import struct
import sys


def prefetched_lines_count_at(data):
    """Offset of the prefetched-lines count in the first core port."""
    at = data.index(b"coreport")
    for _ in range(2):
        at = data.index(b"prefetcher", at) + len(b"prefetcher")
    at += 8  # last trigger
    (entries,) = struct.unpack_from("<I", data, at)
    return at + 4 + 28 * entries  # u32 count, 28-byte stride entries


def main(argv):
    if len(argv) != 4 or argv[1] not in ("count", "truncate"):
        sys.exit(__doc__)
    mode, src, dst = argv[1:]
    data = bytearray(open(src, "rb").read())
    if mode == "count":
        struct.pack_into("<Q", data, prefetched_lines_count_at(data), 1 << 62)
    else:
        del data[len(data) // 2:]
    open(dst, "wb").write(data)


if __name__ == "__main__":
    main(sys.argv)
