"""Inner integration, controller and filter loops, and the CSV number
writer and reader.

run_block integrates one block of samples on pre-generated noise arrays;
sosfilt runs a signal through second-order sections; write_rows writes
float columns as %.17g text and read_rows reads such rows back.  Each runs
the C port in _kernel.c, compiled with the system compiler on the first
call and cached in this package's __pycache__/, or, when that build fails,
run_block_python, sosfilt_python, write_rows_python and read_rows_python,
the references the C port matches bit for bit (byte for byte for the text,
and with the same errors for the reader).  BACKEND and BUILD_ERROR record
which one runs and why.

Controller state is one argument, ctrl, a KernelControllerSet, with one row
or slot per controller; only _c_args orders its fields, for cotrap_run_block:
  sos[s, :]      biquad b0, b1, b2, a1, a2 (a0 = 1 left out), as sosfilt takes it
  sos_off[c]     first section index of controller c (sos_off[-1] = total)
  sos_state[s]   transposed-direct-form-II state (2 per section)
  dly_buf[c, :]  ring buffer; dly_len[c] = delay + 1 slots; dly_pos[c] cursor
  kind[c]        0 = velocity damper (delayed output), 1 = parametric
                 squeezer (filtered output mixed with a 2-omega oscillator)
  gain_n_per_m   output force per meter of processed signal, newtons
  lo_omega, lo_phase, force_limit, sat_count: the oscillator, the actuator
                 limit and the count of samples clipped to it
  hold_force[c]  the force controller c holds over the current sample
"""

import ctypes
import functools
import hashlib
import itertools
import operator
import os
import re
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

FAULT_NONE = 0
FAULT_CROSSING = 1
FAULT_NONFINITE = 2
FAULT_ESCAPED = 3

KIND_DAMPER = 0
KIND_SQUEEZER = 1

# cotrap_bench/ prints this flag, times run_block_python (below) and reads
# run_block's positional arguments n_sub (index 13) and thermal (index 16)
NUMBA_ENABLED = False

# no -march=native and no fast-math: they would change the rounding
_CC = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")

BACKEND = None  # "c" or "python", set by the first call of any of the four
BUILD_ERROR = None  # why the C kernel did not load, when BACKEND is "python"
_lib = None  # the loaded C library, None when BACKEND is "python"
_POW10 = None  # the table of powers of ten of the exact writer and reader, made with _lib

# write_rows formats this many rows per C call into one reused buffer of
# _VALUE_BYTES per value: the longest %.17g, -1.2345678901234567e-308, is
# 24 bytes, plus its comma or newline
_WRITE_CHUNK_ROWS = 4096
_VALUE_BYTES = 25

# read_rows reads the file through one reused buffer of this many bytes,
# which is also the longest row, newline included, that either backend
# accepts: 5242 values of 25 bytes
_READ_BUFFER_BYTES = 1 << 17


class KernelControllerSet(NamedTuple):
    """The state of every controller, laid out as in the module docstring."""

    kind: np.ndarray
    sos: np.ndarray
    sos_off: np.ndarray
    sos_state: np.ndarray
    dly_buf: np.ndarray
    dly_len: np.ndarray
    dly_pos: np.ndarray
    gain_n_per_m: np.ndarray
    lo_omega: np.ndarray
    lo_phase: np.ndarray
    force_limit: np.ndarray
    sat_count: np.ndarray
    hold_force: np.ndarray

    def reset(self):
        self.sos_state[:] = 0.0
        self.dly_buf[:] = 0.0
        self.dly_pos[:] = 0
        self.sat_count[:] = 0
        self.hold_force[:] = 0.0


def biquad(sec, st, u):
    """One transposed-direct-form-II step of the section sec = (b0, b1, b2,
    a1, a2) with its two state slots st, in the order of scipy.signal's
    _sosfilt; returns the output."""
    out = sec[0] * u + st[0]
    st[0] = sec[1] * u - sec[3] * out + st[1]
    st[1] = sec[2] * u - sec[4] * out
    return out


def controller_step(y, t, c, ctrl):
    """Process one measurement sample through controller c of ctrl; returns the force."""
    u = y
    for s in range(ctrl.sos_off[c], ctrl.sos_off[c + 1]):
        u = biquad(ctrl.sos[s], ctrl.sos_state[s], u)
    # ring buffer: write, advance, read oldest = u[n - delay]
    pos = ctrl.dly_pos
    ctrl.dly_buf[c, pos[c]] = u
    pos[c] = (pos[c] + 1) % ctrl.dly_len[c]
    u_sel = ctrl.dly_buf[c, pos[c]]
    if ctrl.kind[c] == KIND_SQUEEZER:
        u_sel = u_sel * np.sin(ctrl.lo_omega[c] * t + ctrl.lo_phase[c])
    f = ctrl.gain_n_per_m[c] * u_sel
    limit = ctrl.force_limit[c]
    if f > limit:
        f = limit
        ctrl.sat_count[c] += 1
    elif f < -limit:
        f = -limit
        ctrl.sat_count[c] += 1
    return f


@np.errstate(all="ignore")  # IEEE infinities and NaNs without warnings, as in C
def run_block_python(pos, vel, m1, m2, u1, u2, kq, coulomb_on,
                     ou_a1, ou_b1, ou_a2, ou_b2, dt, n_sub,
                     block_index0, ts, thermal, det_sigma, det_noise,
                     ctrl, store_every, out_z1, out_z2, out_v1, out_v2,
                     out_y, out_force, z_limit):
    """Integrate one block of output samples with feedback held per sample.

    Symplectic drift-kick steps wrapped around an exact damping/noise
    stage: B(dt/2) A(dt/2) O A(dt/2) B(dt/2) per substep.  The controller
    force computed from sample n's measurement is held constant over the
    whole of sample window n+1 (zero-order hold, one sample of loop
    latency).  Samples are stored instantaneously every `store_every`
    windows; a sample to be stored with |z1| or |z2| above z_limit is the
    FAULT_ESCAPED fault instead.  ctrl, the KernelControllerSet of every
    controller, and pos and vel are updated in place, so blocks chain.

    Returns (fault_code, sample_index_within_block).
    """
    n_samples = thermal.shape[0]
    n_ctrl = ctrl.kind.shape[0]
    hold_force = ctrl.hold_force
    z1 = pos[0]
    z2 = pos[1]
    v1 = vel[0]
    v2 = vel[1]
    half = 0.5 * dt
    fault = FAULT_NONE
    fault_at = -1
    for i in range(n_samples):
        fc_tot = 0.0
        for c in range(n_ctrl):
            fc_tot += hold_force[c]
        for j in range(n_sub):
            # B: half kick
            d = z2 - z1
            if coulomb_on:
                fc = kq / (d * d)
            else:
                fc = 0.0
            v1 += half * ((-u1 * z1 - fc + fc_tot) / m1)
            v2 += half * ((-u2 * z2 + fc) / m2)
            # A: half drift
            z1 += half * v1
            z2 += half * v2
            # O: exact damping + thermal kick
            v1 = ou_a1 * v1 + ou_b1 * thermal[i, j, 0]
            v2 = ou_a2 * v2 + ou_b2 * thermal[i, j, 1]
            # A: half drift
            z1 += half * v1
            z2 += half * v2
            # B: half kick
            d = z2 - z1
            if coulomb_on:
                if d <= 0.0:
                    fault = FAULT_CROSSING
                    fault_at = i
                    break
                fc = kq / (d * d)
            else:
                fc = 0.0
            v1 += half * ((-u1 * z1 - fc + fc_tot) / m1)
            v2 += half * ((-u2 * z2 + fc) / m2)
        if fault != FAULT_NONE:
            break
        if not (np.isfinite(z1) and np.isfinite(z2) and np.isfinite(v1) and np.isfinite(v2)):
            fault = FAULT_NONFINITE
            fault_at = i
            break
        y = z1 + det_sigma * det_noise[i]
        gi = block_index0 + i
        if (gi + 1) % store_every == 0:
            if abs(z1) > z_limit or abs(z2) > z_limit:
                fault = FAULT_ESCAPED
                fault_at = i
                break
            si = (gi + 1) // store_every - 1
            out_z1[si] = z1
            out_z2[si] = z2
            out_v1[si] = v1
            out_v2[si] = v2
            out_y[si] = y
            for c in range(n_ctrl):
                out_force[c, si] = hold_force[c]
        if n_ctrl > 0:
            t = (gi + 1) * ts
            for c in range(n_ctrl):
                hold_force[c] = controller_step(y, t, c, ctrl)
    pos[0] = z1
    pos[1] = z2
    vel[0] = v1
    vel[1] = v2
    return fault, fault_at


def sosfilt_python(sos, x):
    """x filtered through the second-order sections sos from zero state.

    sos has one row b0 b1 b2 a1 a2 per section, the controller's layout,
    and each section takes the controller's biquad step, which is also the
    order of scipy.signal.sosfilt.
    """
    sections = sos.tolist()
    state = [[0.0, 0.0] for _ in sections]
    out = x.tolist()
    for i, u in enumerate(out):
        for sec, st in zip(sections, state):
            u = biquad(sec, st, u)
        out[i] = u
    return np.array(out)


def _library_path():
    """The cached build of _kernel.c, named by the platform and a hash of
    the source, the compiler command and the flags."""
    key = hashlib.sha256(b"\0".join(
        [_SOURCE.read_bytes(), _CC.encode(), *(flag.encode() for flag in _CFLAGS)]
    )).hexdigest()[:16]
    return _CACHE_DIR / f"_kernel.{sysconfig.get_platform()}.{key}.so"


def _build(path):
    """Compile _kernel.c into path.

    The compiler writes a private temporary file that is renamed onto path,
    so processes building at the same time never load a half-written file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        cmd = [_CC, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr.strip()}")
        os.chmod(tmp, 0o755)  # mkstemp made it private to this user
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    # builds of earlier sources; a process that loaded one keeps its mapping
    for stale in path.parent.glob(f"_kernel.{sysconfig.get_platform()}.*.so"):
        if stale != path:
            try:
                stale.unlink()
            except OSError:
                pass


# the result and parameter types of each function _kernel.c exports, one
# letter each: P pointer, S char pointer, D double, I int64, i int, V void
_C_TYPES = {"P": ctypes.c_void_p, "S": ctypes.c_char_p, "D": ctypes.c_double,
            "I": ctypes.c_int64, "i": ctypes.c_int, "V": None}
_C_FUNCTIONS = {
    "cotrap_run_block": ("I", "PP" "DDDDD" "I" "DDDDD" "IIDIPDP" "I" "PPPPP" "I" "PPPPPPPP"
                              "I" "PPPPPP" "I" "D" "P"),
    "cotrap_sosfilt": ("V", "PIPPI"),
    "cotrap_format_g17": ("i", "DPP"),
    "cotrap_format_rows": ("I", "PIIIPPI"),
    "cotrap_parse_decimal": ("I", "SPP"),
    "cotrap_parse_rows": ("I", "PIIPPIP"),
}


def _load():
    """Build or reuse the compiled kernel and set BACKEND, BUILD_ERROR, _lib
    and _POW10."""
    global BACKEND, BUILD_ERROR, _lib, _POW10
    try:
        path = _library_path()
        if not path.exists():
            _build(path)
        lib = ctypes.CDLL(str(path))
        for name, (result, params) in _C_FUNCTIONS.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = _C_TYPES[result], [_C_TYPES[k] for k in params]
    except OSError as exc:  # no compiler, a failed compile, an unwritable cache, a bad file
        BACKEND, BUILD_ERROR, _lib = "python", str(exc), None
        return
    # floor(10^q * 2^(127 - floor(log2 10^q))) for q in [-292, 342] as
    # (high, low) 64-bit words: the top 128 bits of 10^q * 2^1200, exact integers
    words = []
    for q in range(-292, 343):
        x = 10**q << 1200 if q >= 0 else (1 << 1200) // 10**-q
        t = x >> (x.bit_length() - 128)
        words += [t >> 64, t & (2**64 - 1)]
    BACKEND, BUILD_ERROR, _lib, _POW10 = "c", None, lib, np.array(words, dtype=np.uint64)


def _c_library():
    """The C library, built or loaded on the first call; None when its build failed."""
    if BACKEND is None:
        _load()
    return _lib


def _buffer(name, a, dtype, shape, writes=False, caller="run_block"):
    """The data address of a, which must be a C-contiguous array of dtype
    and shape (None matches any length), writable when the kernel writes it."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == len(shape)
            and all(n is None or n == m for n, m in zip(shape, a.shape))
            and a.flags.c_contiguous and (a.flags.writeable or not writes)):
        got = f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__
        order = "C-contiguous writable" if writes else "C-contiguous"
        raise ValueError(f"{caller}: {name} must be a {order} {np.dtype(dtype)} array "
                         f"of shape {shape}, got {got}")
    return a.ctypes.data


def _c_args(pos, vel, m1, m2, u1, u2, kq, coulomb_on,
            ou_a1, ou_b1, ou_a2, ou_b2, dt, n_sub,
            block_index0, ts, thermal, det_sigma, det_noise,
            ctrl, store_every, out_z1, out_z2, out_v1, out_v2,
            out_y, out_force, z_limit):
    """run_block's arguments as cotrap_run_block takes them, the fields of
    ctrl among them.

    Checks the dtype, contiguity and shape of every array and every index
    the loop reads from an array, so that a mismatch raises ValueError
    instead of reading or writing out of bounds.
    """
    f8, i8 = np.float64, np.int64
    n_sub, block_index0 = operator.index(n_sub), operator.index(block_index0)
    store_every = operator.index(store_every)

    def field(name, dtype, shape, writes=False):
        return _buffer(f"ctrl.{name}", getattr(ctrl, name), dtype, shape, writes)

    p_thermal = _buffer("thermal", thermal, f8, (None, n_sub, 2))
    p_kind = field("kind", i8, (None,))
    p_sos = field("sos", f8, (None, 5))
    p_dly_buf = field("dly_buf", f8, (ctrl.kind.shape[0], None), writes=True)
    p_out_z1 = _buffer("out_z1", out_z1, f8, (None,), writes=True)
    n_samples, n_ctrl, n_sec = thermal.shape[0], ctrl.kind.shape[0], ctrl.sos.shape[0]
    dly_cols, n_stored = ctrl.dly_buf.shape[1], out_z1.shape[0]
    per = (n_ctrl,)
    args = (
        _buffer("pos", pos, f8, (2,), writes=True),
        _buffer("vel", vel, f8, (2,), writes=True),
        m1, m2, u1, u2, kq, int(bool(coulomb_on)), ou_a1, ou_b1, ou_a2, ou_b2,
        dt, n_sub, block_index0, ts, n_samples, p_thermal, det_sigma,
        _buffer("det_noise", det_noise, f8, (n_samples,)),
        n_ctrl, p_kind, p_sos,
        field("sos_off", i8, (n_ctrl + 1,)),
        field("sos_state", f8, (n_sec, 2), writes=True),
        p_dly_buf, dly_cols,
        field("dly_len", i8, per),
        field("dly_pos", i8, per, writes=True),
        *(field(name, f8, per)
          for name in ("gain_n_per_m", "lo_omega", "lo_phase", "force_limit")),
        field("sat_count", i8, per, writes=True),
        field("hold_force", f8, per, writes=True),
        store_every, p_out_z1,
        *(_buffer(name, a, f8, (n_stored,), writes=True)
          for name, a in (("out_z2", out_z2), ("out_v1", out_v1),
                          ("out_v2", out_v2), ("out_y", out_y))),
        _buffer("out_force", out_force, f8, (n_ctrl, n_stored), writes=True),
        n_stored, z_limit,
    )
    sos_off, dly_len, dly_pos = ctrl.sos_off, ctrl.dly_len, ctrl.dly_pos
    if not np.all(np.diff(sos_off, prepend=0, append=n_sec) >= 0):
        raise ValueError(f"run_block: ctrl.sos_off {sos_off} must rise from 0 to at most {n_sec}")
    if not np.all((dly_len >= 1) & (dly_len <= dly_cols) & (dly_pos >= 0) & (dly_pos < dly_len)):
        raise ValueError(f"run_block: need 1 <= dly_len <= {dly_cols} and 0 <= dly_pos < dly_len")
    if not (store_every >= 1 and block_index0 >= 0
            and (block_index0 + n_samples) // store_every <= n_stored):
        raise ValueError(f"run_block: samples {block_index0} + {n_samples} stored every "
                         f"{store_every} do not fit {n_stored} output slots")
    return args


@functools.wraps(run_block_python)
def run_block(*args):
    lib = _c_library()
    c_args = _c_args(*args)
    if lib is None:
        return run_block_python(*args)
    fault_at = ctypes.c_int64()
    fault = lib.cotrap_run_block(*c_args, ctypes.byref(fault_at))
    return fault, fault_at.value


def sosfilt(sos, x):
    """sosfilt_python(sos, x), run in C unless the C build failed.

    sos must be a C-contiguous float64 (n_sections, 5) array and x a
    C-contiguous float64 vector; anything else raises ValueError, whichever
    backend runs.
    """
    lib = _c_library()
    p_sos = _buffer("sos", sos, np.float64, (None, 5), caller="sosfilt")
    _buffer("x", x, np.float64, (None,), caller="sosfilt")
    if lib is None:
        return sosfilt_python(sos, x)
    out = x.copy()
    state = np.zeros((sos.shape[0], 2))
    lib.cotrap_sosfilt(p_sos, sos.shape[0], state.ctypes.data, out.ctypes.data, out.shape[0])
    return out


def write_rows_python(fh, columns):
    """Write the rows of equal-length float64 columns to the text file fh,
    each value as %.17g, commas between values, a newline after each row."""
    np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",")


def write_rows(fh, columns):
    """write_rows_python(fh, columns), formatted in C unless the C build failed.

    The C formatter writes the same bytes as np.savetxt, NaN of either sign
    as "nan" included: an exact 128-bit conversion for all but the few
    values whose rounding it cannot prove, and snprintf for those.  It
    streams _WRITE_CHUNK_ROWS rows at a time through one reused buffer, so
    the text of the whole file is never in memory.
    columns must be one or more 1-D arrays of one length, converted to
    float64; anything else raises ValueError, whichever backend runs.
    """
    lib = _c_library()
    columns = [np.ascontiguousarray(c, dtype=np.float64) for c in columns]
    shapes = {c.shape for c in columns}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise ValueError(f"write_rows: columns must be 1-D arrays of one length, "
                         f"got shapes {[c.shape for c in columns]}")
    if lib is None:
        return write_rows_python(fh, columns)
    n_rows, n_cols = columns[0].shape[0], len(columns)
    pointers = (ctypes.c_void_p * n_cols)(*(c.ctypes.data for c in columns))
    size = _WRITE_CHUNK_ROWS * n_cols * _VALUE_BYTES
    buf = ctypes.create_string_buffer(size)
    for r0 in range(0, n_rows, _WRITE_CHUNK_ROWS):
        n = lib.cotrap_format_rows(pointers, n_cols, r0, min(r0 + _WRITE_CHUNK_ROWS, n_rows),
                                    _POW10.ctypes.data, buf, size)
        if n < 0:  # a full buffer, which _VALUE_BYTES rules out, or no "C" locale
            raise RuntimeError(f"write_rows: formatting rows from {r0} failed")
        fh.write(ctypes.string_at(buf, n).decode("ascii"))


# one number of a data row: what strtod reads in the "C" locale, less hex
# floats, "nan(...)" and white space around the number
_NUMBER = rb"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|(?i:inf(?:inity)?|nan))"

# cotrap_parse_rows's return value when there is no "C" locale
_NO_LOCALE = -(2**63)


def _row_error(row, n_cols, why):
    """The ValueError both readers raise for data row `row`, counted from 1."""
    reasons = {
        "long": f"does not fit in {_READ_BUFFER_BYTES} bytes",
        "cut": "has no newline: the file is cut short",
        "bad": f"is not {n_cols} comma-separated numbers",
    }
    return ValueError(f"data row {row} {reasons[why]}")


def read_rows_python(fh, n_cols):
    """The rest of the binary file fh, rows of n_cols comma-separated
    numbers each ended by a newline, as a (rows, n_cols) float64 array read
    by np.loadtxt.

    A row is checked before np.loadtxt sees it; the first row that does not
    fit in _READ_BUFFER_BYTES, has no newline or is not n_cols numbers
    raises ValueError.  So np.loadtxt never skips a blank or "#" line and
    never strips white space or a carriage return.
    """
    pattern = re.compile(b",".join([_NUMBER] * n_cols) + b"\n")

    def checked(row, line):
        if len(line) - line.endswith(b"\n") >= _READ_BUFFER_BYTES:
            raise _row_error(row, n_cols, "long")
        if not line.endswith(b"\n"):
            raise _row_error(row, n_cols, "cut")
        if pattern.fullmatch(line) is None:
            raise _row_error(row, n_cols, "bad")
        return line.decode("ascii")

    lines = (checked(row, line) for row, line in enumerate(fh, 1))
    first = next(lines, None)
    if first is None:
        return np.empty((0, n_cols))
    return np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2)


def read_rows(fh, n_cols):
    """read_rows_python(fh, n_cols), parsed in C unless the C build failed.

    The C parser reads each plain decimal in one pass with an exact 128-bit
    conversion, on the writer's table of powers of ten, and hands the few
    numbers whose rounding it cannot prove, and inf and nan, to the C
    library's strtod in the "C" locale.  Both round correctly, as
    np.loadtxt does.  It rejects what read_rows_python rejects, with the
    same ValueError.  It reads fh through one reused buffer of
    _READ_BUFFER_BYTES into an array sized for the most rows the rest of
    the file can hold, two bytes per value, whose untouched pages never
    become resident, and shrinks it in place at the end.  The text of the
    whole file is never in memory.
    """
    lib = _c_library()
    n_cols = operator.index(n_cols)
    if n_cols < 1:
        raise ValueError(f"read_rows: n_cols must be at least 1, got {n_cols}")
    if lib is None:
        return read_rows_python(fh, n_cols)
    try:
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    except OSError:  # an in-memory file; like a pipe, whose size reads 0, it grows the array
        remaining = 0
    out = np.empty((max(remaining, 0) // (2 * n_cols), n_cols))
    buf = np.empty(_READ_BUFFER_BYTES, dtype=np.uint8)
    consumed = ctypes.c_int64()
    n_rows = carry = 0
    while got := fh.readinto(buf[carry:]):
        end = carry + got
        bound = n_rows + end // (2 * n_cols)
        if bound > out.shape[0]:  # more than the file held when it was opened
            out.resize((max(bound, 2 * out.shape[0]), n_cols), refcheck=False)
        rows = lib.cotrap_parse_rows(buf.ctypes.data, end, n_cols, _POW10.ctypes.data,
                                      out.ctypes.data + out.itemsize * n_cols * n_rows,
                                      out.shape[0] - n_rows, ctypes.byref(consumed))
        if rows == _NO_LOCALE:
            raise RuntimeError("read_rows: the C library has no \"C\" locale")
        if rows < 0:
            raise _row_error(n_rows - rows, n_cols, "bad")
        n_rows += rows
        carry = end - consumed.value
        if carry == buf.shape[0]:
            raise _row_error(n_rows + 1, n_cols, "long")
        buf[:carry] = buf[consumed.value:end]
    if carry:
        raise _row_error(n_rows + 1, n_cols, "cut")
    out.resize((n_rows, n_cols), refcheck=False)
    return out
