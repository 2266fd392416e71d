#!/usr/bin/env python3
"""Validate dcbench observability artifacts (CI gate).

Six subcommands, all exiting nonzero with a diagnostic on failure:

  check_obs.py telemetry FILE [FILE...]
      Every additive column of each <workload>.telemetry.json must sum
      EXACTLY (bit-for-bit as IEEE doubles, not within an epsilon) to
      the whole-run total -- the recorder's delta encoding guarantees
      it, and this is the independent check that it held on disk.
      Gauge (non-additive) columns must be finite and non-negative.

  check_obs.py extents DCXFILE [TELEMETRY_JSON]
      Independently re-implements the columnar extent decoder
      (src/obs/extent.h): parses the DCXTELE1 header, decodes every
      extent's delta+zigzag+varint / raw64 / RLE-wrapped blocks,
      verifies each extent's FNV-1a checksum over the exact on-disk
      bytes, re-accumulates every additive column left-to-right and
      compares against the footer running sums BIT-FOR-BIT (the
      sum-induction invariant), and verifies the trailer counts and
      checksum. With TELEMETRY_JSON given, additionally cross-checks
      the decoded row count and the final running sums against the
      exported JSON's rows/totals.

  check_obs.py sketch DCXFILE
      Decodes the persisted sketch section of a .dcx extent file and
      re-verifies the Greenwald-Khanna rank-error invariant from the
      on-disk bytes alone -- tuples sorted, sum of g equal to the
      insert count, g + delta <= floor(2*epsilon*n) + 1 for every tuple
      (the condition that bounds every quantile query's rank error by
      epsilon*n), and min/max bracketing the tuple values.

  check_obs.py prom FILE [SERIES...]
      FILE must be Prometheus text exposition: every family declared
      with a # TYPE line (counter, gauge or summary) before its
      samples, every sample line well-formed with sorted label pairs,
      every value finite, counters non-negative, and summary families
      carrying quantile samples plus _sum/_count. Each named SERIES
      must be present as a family.

  check_obs.py trace FILE [CATEGORY...]
      FILE must parse as Chrome trace-event JSON with a traceEvents
      list, every event must carry the required fields for its phase
      type, and each named CATEGORY must appear at least once
      (e.g. workload sampling task phase fault).

  check_obs.py manifest FILE [KEY...]
      FILE must parse as one flat JSON object and contain every KEY.

Both C++ and this script accumulate in IEEE-754 binary64 left to
right, so "exact" means Python's float sum reproduces the C++ total
bit for bit.
"""

import json
import math
import re
import struct
import sys


def fail(msg):
    print(f"check_obs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_telemetry(paths):
    if not paths:
        fail("no telemetry files given")
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        cols = doc["columns"]
        additive = doc["additive"]
        totals = doc["totals"]
        rows = doc["rows"]
        if not rows:
            fail(f"{path}: no interval rows")
        if not (len(cols) == len(additive) == len(totals)):
            fail(f"{path}: columns/additive/totals length mismatch")
        for row in rows:
            if len(row["values"]) != len(cols):
                fail(f"{path}: row {row['interval']} has "
                     f"{len(row['values'])} values, want {len(cols)}")
        exact = 0
        for i, name in enumerate(cols):
            values = [row["values"][i] for row in rows]
            if additive[i]:
                acc = 0.0
                for v in values:
                    acc += v
                if acc != totals[i]:
                    fail(f"{path}: column '{name}' interval sum "
                         f"{acc!r} != total {totals[i]!r} "
                         f"(diff {acc - totals[i]:g})")
                exact += 1
            else:
                for v in values:
                    if not math.isfinite(v) or v < 0.0:
                        fail(f"{path}: gauge '{name}' value {v!r} "
                             "not finite/non-negative")
        ops = sum(row["op_count"] for row in rows)
        print(f"check_obs: OK: {path}: {len(rows)} intervals x "
              f"{len(cols)} columns, {exact} additive columns sum "
              f"exactly, {ops:.0f} ops covered")


# --- Columnar extent decoding (mirror of src/obs/extent.cc) ----------

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
MASK64 = (1 << 64) - 1
EXTENT_MAGIC = 0x31545845   # "EXT1"
SKETCH_MAGIC = 0x31484B53   # "SKH1"
TRAILER_MAGIC = 0x31444E45  # "END1"
RLE_FLAG = 0x80


def fnv1a(data, seed=FNV_OFFSET):
    h = seed
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def get_varint(data, pos):
    """LEB128 decode; returns (value, next_pos)."""
    out = 0
    shift = 0
    while shift < 64:
        if pos >= len(data):
            fail("truncated varint")
        b = data[pos]
        pos += 1
        out |= (b & 0x7F) << shift
        if not b & 0x80:
            return out, pos
        shift += 7
    fail("overlong varint")


def zigzag_decode(v):
    return (v >> 1) ^ -(v & 1)


def rle_decode(data):
    """PackBits-style: c < 128 copies c+1 literals, else repeats the
    next byte c-125 times."""
    out = bytearray()
    i = 0
    while i < len(data):
        c = data[i]
        i += 1
        if c < 128:
            n = c + 1
            if i + n > len(data):
                fail("corrupt RLE stream (literal run past end)")
            out += data[i:i + n]
            i += n
        else:
            if i >= len(data):
                fail("corrupt RLE stream (missing repeat byte)")
            out += bytes([data[i]]) * (c - 125)
            i += 1
    return bytes(out)


def decode_block(data, pos, count):
    """One (tag, varint len, payload) block -> (ints, next_pos, body
    bytes covered). Integer blocks decode to Python ints; raw blocks to
    u64 bit patterns."""
    start = pos
    if pos >= len(data):
        fail("truncated block tag")
    tag = data[pos]
    pos += 1
    length, pos = get_varint(data, pos)
    if pos + length > len(data):
        fail("truncated block payload")
    payload = data[pos:pos + length]
    pos += length
    if tag & RLE_FLAG:
        payload = rle_decode(payload)
    enc = tag & ~RLE_FLAG
    if enc == 1:  # delta + zigzag + varint
        values = []
        prev = 0
        p = 0
        for _ in range(count):
            u, p = get_varint(payload, p)
            prev += zigzag_decode(u)
            values.append(prev)
        if p != len(payload):
            fail("trailing bytes in varint block")
        return ("int", values), pos, data[start:pos]
    if enc == 0:  # raw 8-byte bit patterns
        if len(payload) != count * 8:
            fail("raw block length mismatch")
        values = list(struct.unpack(f"<{count}Q", payload))
        return ("raw", values), pos, data[start:pos]
    fail(f"unknown column encoding {enc}")


def u64_to_double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def parse_sketch_section(data, pos, path):
    """pos sits just after the SKH1 magic; returns (sketches, next_pos).
    The checksum covers sketch_count through the last tuple byte."""
    body_start = pos
    if pos + 4 > len(data):
        fail(f"{path}: truncated sketch section")
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    sketches = []
    for _ in range(count):
        if pos + 2 > len(data):
            fail(f"{path}: truncated sketch name")
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos:pos + name_len].decode()
        pos += name_len
        if pos + 32 > len(data):
            fail(f"{path}: truncated sketch header for '{name}'")
        eps_bits, n, min_bits, max_bits = struct.unpack_from(
            "<QQQQ", data, pos)
        pos += 32
        tuple_count, pos = get_varint(data, pos)
        tuples = []
        for _ in range(tuple_count):
            if pos + 8 > len(data):
                fail(f"{path}: truncated sketch tuples for '{name}'")
            (value_bits,) = struct.unpack_from("<Q", data, pos)
            pos += 8
            g, pos = get_varint(data, pos)
            delta, pos = get_varint(data, pos)
            tuples.append((u64_to_double(value_bits), g, delta))
        sketches.append({
            "name": name,
            "epsilon": u64_to_double(eps_bits),
            "count": n,
            "min": u64_to_double(min_bits),
            "max": u64_to_double(max_bits),
            "tuples": tuples,
        })
    if pos + 8 > len(data):
        fail(f"{path}: truncated sketch checksum")
    (want,) = struct.unpack_from("<Q", data, pos)
    if fnv1a(data[body_start:pos]) != want:
        fail(f"{path}: sketch section checksum mismatch")
    pos += 8
    return sketches, pos


def verify_gk(path, sk):
    """The Greenwald-Khanna invariant, re-proved from the persisted
    tuples: values sorted, the rank gaps g sum to the insert count, and
    every tuple's uncertainty g + delta stays within floor(2*eps*n)+1.
    That last bound is what caps any quantile query's rank error at
    eps*n, so checking it on disk re-verifies the rank-error guarantee
    without trusting the writer."""
    name, eps, n = sk["name"], sk["epsilon"], sk["count"]
    tuples = sk["tuples"]
    if not (0.0 < eps < 1.0):
        fail(f"{path}: sketch '{name}' epsilon {eps!r} out of range")
    if n == 0:
        if tuples:
            fail(f"{path}: sketch '{name}' empty but has tuples")
        return
    if not tuples:
        fail(f"{path}: sketch '{name}' has {n} inserts but no tuples")
    cap = math.floor(2.0 * eps * n) + 1
    g_total = 0
    prev = None
    for i, (v, g, delta) in enumerate(tuples):
        if not math.isfinite(v):
            fail(f"{path}: sketch '{name}' tuple {i} value {v!r}")
        if prev is not None and v < prev:
            fail(f"{path}: sketch '{name}' tuples not sorted at {i}")
        prev = v
        g_total += g
        if g + delta > cap:
            fail(f"{path}: sketch '{name}' tuple {i}: g+delta "
                 f"{g + delta} exceeds floor(2*eps*n)+1 = {cap}; the "
                 "epsilon rank-error bound does not hold")
    if g_total != n:
        fail(f"{path}: sketch '{name}' rank gaps sum to {g_total}, "
             f"want insert count {n}")
    if tuples[0][0] < sk["min"] or tuples[-1][0] > sk["max"]:
        fail(f"{path}: sketch '{name}' tuple values escape "
             f"[min={sk['min']!r}, max={sk['max']!r}]")


def check_extents(dcx_path, json_path=None):
    with open(dcx_path, "rb") as f:
        data = f.read()
    if data[:8] != b"DCXTELE1":
        fail(f"{dcx_path}: bad file magic")
    version, ncols = struct.unpack_from("<II", data, 8)
    if version != 1:
        fail(f"{dcx_path}: unsupported version {version}")
    pos = 16
    columns = []
    additive = []
    for _ in range(ncols):
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        columns.append(data[pos:pos + name_len].decode())
        pos += name_len
        additive.append(data[pos] != 0)
        pos += 1
    n_add = sum(additive)

    sums = [0.0] * n_add
    rows_read = 0
    extents_read = 0
    encodings = {}
    sketches = []
    trailer_seen = False
    while pos < len(data):
        (magic,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if magic == SKETCH_MAGIC:
            sketches, pos = parse_sketch_section(data, pos, dcx_path)
            for sk in sketches:
                verify_gk(dcx_path, sk)
            continue
        if magic == TRAILER_MAGIC:
            total_rows, total_extents, want = struct.unpack_from(
                "<QQQ", data, pos)
            if fnv1a(data[pos:pos + 16]) != want:
                fail(f"{dcx_path}: trailer checksum mismatch")
            if total_rows != rows_read or total_extents != extents_read:
                fail(f"{dcx_path}: trailer counts ({total_rows} rows, "
                     f"{total_extents} extents) disagree with decoded "
                     f"({rows_read}, {extents_read})")
            pos += 24
            trailer_seen = True
            break
        if magic != EXTENT_MAGIC:
            fail(f"{dcx_path}: bad extent magic at byte {pos - 4}")
        body_start = pos
        (count,) = struct.unpack_from("<I", data, pos)
        pos += 4
        cols = []
        for _ in range(ncols + 2):  # first_op, op_count, then columns
            block, pos, _ = decode_block(data, pos, count)
            kind, vals = block
            encodings[kind] = encodings.get(kind, 0) + 1
            if kind == "int":
                cols.append([float(v) for v in vals])
            else:
                cols.append([struct.unpack("<d", struct.pack("<Q", u))[0]
                             for u in vals])
        stored_sums = data[pos:pos + n_add * 8]
        pos += n_add * 8
        (want,) = struct.unpack_from("<Q", data, pos)
        if fnv1a(data[body_start:pos]) != want:
            fail(f"{dcx_path}: extent {extents_read} checksum mismatch")
        pos += 8
        # The induction step: re-accumulate row-by-row in the same
        # left-to-right order the recorder used and compare the running
        # sums against the footer bit patterns.
        for r in range(count):
            a = 0
            for c in range(ncols):
                if additive[c]:
                    sums[a] += cols[c + 2][r]
                    a += 1
        for a in range(n_add):
            if struct.pack("<d", sums[a]) != stored_sums[a * 8:a * 8 + 8]:
                fail(f"{dcx_path}: extent {extents_read} footer "
                     f"running-sum mismatch (additive column {a}): "
                     "column sum invariant violated")
        rows_read += count
        extents_read += 1
    if not trailer_seen:
        fail(f"{dcx_path}: missing trailer (truncated file)")
    if pos != len(data):
        fail(f"{dcx_path}: {len(data) - pos} trailing bytes after "
             "trailer")

    if json_path is not None:
        with open(json_path) as f:
            doc = json.load(f)
        if len(doc["rows"]) != rows_read:
            fail(f"{dcx_path}: {rows_read} decoded rows but "
                 f"{json_path} exports {len(doc['rows'])}")
        add_totals = [t for t, a in zip(doc["totals"], doc["additive"])
                      if a]
        for a, (got, want) in enumerate(zip(sums, add_totals)):
            if struct.pack("<d", got) != struct.pack("<d", want):
                fail(f"{dcx_path}: final running sum {got!r} != "
                     f"{json_path} total {want!r} (additive column {a})")
    enc_summary = ", ".join(f"{k}={v}" for k, v in sorted(
        encodings.items()))
    print(f"check_obs: OK: {dcx_path}: {extents_read} extents, "
          f"{rows_read} rows x {ncols} columns ({enc_summary}), "
          f"{n_add} additive running sums verified bitwise at every "
          "footer"
          + (f", {len(sketches)} persisted sketches pass the GK "
             "invariant" if sketches else "")
          + (f", totals match {json_path}" if json_path else ""))
    return sketches


def skip_extent(data, pos, ncols, n_add, path):
    """Walk one extent without decoding its blocks (tag + varint len +
    payload each, then footer sums and checksum)."""
    if pos + 4 > len(data):
        fail(f"{path}: truncated extent")
    pos += 4  # row count
    for _ in range(ncols + 2):
        if pos >= len(data):
            fail(f"{path}: truncated extent block")
        pos += 1  # tag
        length, pos = get_varint(data, pos)
        pos += length
    pos += n_add * 8 + 8
    if pos > len(data):
        fail(f"{path}: truncated extent footer")
    return pos


def check_sketch(path):
    """Re-verify the GK rank-error invariant from a .dcx file's
    persisted sketch section alone (extent bodies are skipped, not
    re-verified -- that is the `extents` subcommand's job)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"DCXTELE1":
        fail(f"{path}: not a DCXTELE1 extent file")
    version, ncols = struct.unpack_from("<II", data, 8)
    if version != 1:
        fail(f"{path}: unsupported version {version}")
    pos = 16
    additive = []
    for _ in range(ncols):
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2 + name_len
        additive.append(data[pos] != 0)
        pos += 1
    n_add = sum(additive)
    sketches = []
    while pos < len(data):
        (magic,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if magic == EXTENT_MAGIC:
            pos = skip_extent(data, pos, ncols, n_add, path)
        elif magic == SKETCH_MAGIC:
            sketches, pos = parse_sketch_section(data, pos, path)
        elif magic == TRAILER_MAGIC:
            pos += 24
            break
        else:
            fail(f"{path}: bad section magic at byte {pos - 4}")
    if not sketches:
        fail(f"{path}: no persisted sketch section")
    for sk in sketches:
        verify_gk(path, sk)
    total = sum(sk["count"] for sk in sketches)
    print(f"check_obs: OK: {path}: {len(sketches)} persisted sketches "
          f"({total} observations) re-verified from disk: tuples "
          "sorted, rank gaps sum to the insert count, g+delta within "
          "floor(2*eps*n)+1 everywhere")


SAMPLE_RE = re.compile(
    r'^([A-Za-z_:][A-Za-z0-9_:]*)'        # metric name
    r'(?:\{([^{}]*)\})?'                   # optional label set
    r' (-?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|inf|nan))$')
LABEL_RE = re.compile(r'^([A-Za-z_][A-Za-z0-9_]*)="([^"\\]*)"$')


def check_prom(path, required_series):
    with open(path) as f:
        text = f.read()
    families = {}       # name -> type
    samples = {}        # family -> sample count
    summary_parts = {}  # family -> set of seen parts
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "summary"):
                fail(f"{path}:{lineno}: malformed TYPE line: {line}")
            if parts[2] in families:
                fail(f"{path}:{lineno}: family '{parts[2]}' declared "
                     "twice")
            families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if m is None:
            fail(f"{path}:{lineno}: malformed sample line: {line}")
        name, labelstr, valuestr = m.groups()
        value = float(valuestr)
        if not math.isfinite(value):
            fail(f"{path}:{lineno}: non-finite value in: {line}")
        labels = {}
        if labelstr:
            for pair in labelstr.split(","):
                lm = LABEL_RE.match(pair)
                if lm is None:
                    fail(f"{path}:{lineno}: malformed label '{pair}'")
                if lm.group(1) in labels:
                    fail(f"{path}:{lineno}: duplicate label "
                         f"'{lm.group(1)}'")
                labels[lm.group(1)] = lm.group(2)
        # Summary families expose name{quantile=...}, name_sum and
        # name_count; everything else samples under its family name.
        family, part = name, "sample"
        if name not in families:
            for suffix in ("_sum", "_count"):
                base = name[:-len(suffix)] if name.endswith(suffix) \
                    else None
                if base and families.get(base) == "summary":
                    family, part = base, suffix
                    break
        if family not in families:
            fail(f"{path}:{lineno}: sample '{name}' has no preceding "
                 "# TYPE declaration")
        kind = families[family]
        if kind == "summary" and part == "sample":
            if "quantile" not in labels:
                fail(f"{path}:{lineno}: summary sample without a "
                     f"quantile label: {line}")
            part = "quantile"
        if kind == "counter" and value < 0.0:
            fail(f"{path}:{lineno}: negative counter value: {line}")
        samples[family] = samples.get(family, 0) + 1
        summary_parts.setdefault(family, set()).add(part)
    for family, kind in families.items():
        if samples.get(family, 0) == 0:
            fail(f"{path}: family '{family}' declared but has no "
                 "samples")
        if kind == "summary":
            missing = {"quantile", "_sum", "_count"} - \
                summary_parts[family]
            if missing:
                fail(f"{path}: summary '{family}' missing "
                     f"{sorted(missing)} samples")
    for name in required_series:
        if name not in families:
            fail(f"{path}: required series '{name}' absent; has "
                 f"{sorted(families)}")
    total = sum(samples.values())
    print(f"check_obs: OK: {path}: {len(families)} families, {total} "
          "samples, all declared before use with finite values")


def check_trace(path, required_cats):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents list")
    for i, ev in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                fail(f"{path}: event {i} missing '{key}': {ev}")
        if ev["ph"] in ("X", "i") and "ts" not in ev:
            fail(f"{path}: event {i} missing 'ts': {ev}")
        if ev["ph"] == "X" and "dur" not in ev:
            fail(f"{path}: complete event {i} missing 'dur': {ev}")
    cats = {}
    for ev in events:
        cats[ev.get("cat", "")] = cats.get(ev.get("cat", ""), 0) + 1
    for cat in required_cats:
        if cats.get(cat, 0) == 0:
            fail(f"{path}: no '{cat}' events; has {sorted(cats)}")
    summary = ", ".join(f"{c}={n}" for c, n in sorted(cats.items()) if c)
    print(f"check_obs: OK: {path}: {len(events)} events ({summary})")


def check_manifest(path, required_keys):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not doc:
        fail(f"{path}: not a flat JSON object")
    for key in required_keys:
        if key not in doc:
            fail(f"{path}: missing manifest key '{key}'")
    print(f"check_obs: OK: {path}: {len(doc)} manifest entries")


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    mode, args = argv[1], argv[2:]
    if mode == "telemetry":
        check_telemetry(args)
    elif mode == "extents":
        check_extents(args[0], args[1] if len(args) > 1 else None)
    elif mode == "sketch":
        check_sketch(args[0])
    elif mode == "prom":
        check_prom(args[0], args[1:])
    elif mode == "trace":
        check_trace(args[0], args[1:])
    elif mode == "manifest":
        check_manifest(args[0], args[1:])
    else:
        fail(f"unknown mode '{mode}'")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
