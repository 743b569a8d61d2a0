"""Inner integration and controller loops.

Plain Python over numpy arrays and scalars, consuming pre-generated
noise arrays; this is the one execution backend.

Controller state layout (one row / slot per controller):
  sos[s, :]      biquad coefficients b0, b1, b2, a1, a2 (a0 normalized out)
  sos_off[c]     first section index of controller c (sos_off[-1] = total)
  sos_state[s]   transposed-direct-form-II state (2 per section)
  dly_buf[c, :]  ring buffer; dly_len[c] = delay + 1 slots; dly_pos[c] cursor
  kind[c]        0 = velocity damper (delayed output), 1 = parametric
                 squeezer (filtered output mixed with a 2-omega oscillator)
  gain_n_per_m   output force per meter of processed signal, newtons
"""

import numpy as np

FAULT_NONE = 0
FAULT_CROSSING = 1
FAULT_NONFINITE = 2

KIND_DAMPER = 0
KIND_SQUEEZER = 1

# cotrap_bench/ prints this flag, times run_block_python (below) and reads
# run_block's positional arguments n_sub (index 13) and thermal (index 16)
NUMBA_ENABLED = False


def controller_step(y, t, c, kind, sos, sos_off, sos_state, dly_buf, dly_len,
                    dly_pos, gain_n_per_m, lo_omega, lo_phase, force_limit,
                    sat_count):
    """Process one measurement sample through controller c; returns the force."""
    u = y
    for s in range(sos_off[c], sos_off[c + 1]):
        b0 = sos[s, 0]
        b1 = sos[s, 1]
        b2 = sos[s, 2]
        a1 = sos[s, 3]
        a2 = sos[s, 4]
        out = b0 * u + sos_state[s, 0]
        sos_state[s, 0] = b1 * u - a1 * out + sos_state[s, 1]
        sos_state[s, 1] = b2 * u - a2 * out
        u = out
    # ring buffer: write, advance, read oldest = u[n - delay]
    dly_buf[c, dly_pos[c]] = u
    dly_pos[c] = (dly_pos[c] + 1) % dly_len[c]
    u_sel = dly_buf[c, dly_pos[c]]
    if kind[c] == KIND_SQUEEZER:
        u_sel = u_sel * np.sin(lo_omega[c] * t + lo_phase[c])
    f = gain_n_per_m[c] * u_sel
    if f > force_limit[c]:
        f = force_limit[c]
        sat_count[c] += 1
    elif f < -force_limit[c]:
        f = -force_limit[c]
        sat_count[c] += 1
    return f


def controller_pass(y, t0, ts, kind, sos, sos_off, sos_state, dly_buf, dly_len,
                    dly_pos, gain_n_per_m, lo_omega, lo_phase, force_limit,
                    sat_count, out_force):
    """Run the measurement-to-force chain over a block of samples.

    y[n] is the measurement at time t0 + (n + 1) * ts; out_force[n] is the
    force the actuator would hold starting right after that sample.  State
    arrays are updated in place so blocks chain seamlessly.
    """
    n = y.shape[0]
    n_ctrl = kind.shape[0]
    for i in range(n):
        t = t0 + (i + 1) * ts
        for c in range(n_ctrl):
            out_force[c, i] = controller_step(
                y[i], t, c, kind, sos, sos_off, sos_state, dly_buf, dly_len,
                dly_pos, gain_n_per_m, lo_omega, lo_phase, force_limit,
                sat_count,
            )
    return 0


def run_block(pos, vel, m1, m2, u1, u2, kq, coulomb_on,
              ou_a1, ou_b1, ou_a2, ou_b2, dt, n_sub,
              block_index0, ts, thermal, det_sigma, det_noise,
              kind, sos, sos_off, sos_state, dly_buf, dly_len, dly_pos,
              gain_n_per_m, lo_omega, lo_phase, force_limit, sat_count,
              hold_force, store_every, out_z1, out_z2, out_v1, out_v2,
              out_y, out_force):
    """Integrate one block of output samples with feedback held per sample.

    Symplectic drift-kick steps wrapped around an exact damping/noise
    stage: B(dt/2) A(dt/2) O A(dt/2) B(dt/2) per substep.  The controller
    force computed from sample n's measurement is held constant over the
    whole of sample window n+1 (zero-order hold, one sample of loop
    latency).  Samples are stored instantaneously every `store_every`
    windows.

    Returns (fault_code, sample_index_within_block).
    """
    n_samples = thermal.shape[0]
    n_ctrl = kind.shape[0]
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
                hold_force[c] = controller_step(
                    y, t, c, kind, sos, sos_off, sos_state, dly_buf, dly_len,
                    dly_pos, gain_n_per_m, lo_omega, lo_phase, force_limit,
                    sat_count,
                )
    pos[0] = z1
    pos[1] = z2
    vel[0] = v1
    vel[1] = v2
    return fault, fault_at


run_block_python = run_block
