"""Toy-scale trainable adapter stack on a minimal transformer block.

The block hosts four mechanisms: a timestep/layer conditioner emitting
six modulation scalars, a gated low-rank residual on the attention value
projection, FiLM modulation of the MLP-branch input driven by perceptual
embeddings, and an additive residual coupler. Backbone weights stay
frozen; all adapter gradients are hand-derived reverse accumulation
through this fixed graph, verified against the central-difference oracle.
The block takes its physical and perceptual tokens as arrays;
`demo_inputs` draws seeded random ones for the self-checks.
"""

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import tensorcore as tc
from .errors import ConfigError, DimensionError, DomainError

HEADS = 4  # attention heads; the token width is a multiple of it
LAYERS = 2  # layers the conditioner embeds
D_P = 8  # perceptual token width
C_PHYS = 4  # physical token channels
D_G = 4  # global-stats entries
K_BANDS = 4  # spectral bands
N_SIN = 8  # timestep features: a sine and a cosine at each of N_SIN // 2 octaves
PSI_HIDDEN = 8  # conditioner hidden width
SEEDED_STD = 0.1  # spread of AdapterState.seeded's normal draws
GRAD_CHECK_T = 0.37  # timestep and layer at which grad_check_adapters probes
GRAD_CHECK_LAYER = 0
FD_STEP = 1e-3  # central-difference step, above the probe loss's round-off floor
GRAD_TOL = 1e-4  # largest relative gradient error a group may show


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _silu_prime(x):
    s = tc.sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


@dataclass(frozen=True)
class ToyBlockConfig:
    """The block sizes a caller chooses: token width, token count, adapter rank."""

    d: int
    n_tokens: int
    rank: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1, got {getattr(self, f.name)!r}")
        if self.d % HEADS != 0:
            raise ConfigError(f"token width must divide evenly into {HEADS} heads")


@dataclass
class ModulationParams:
    alpha_pga: float
    beta_pga: float
    alpha_pcm: float
    beta_pcm: float
    n_spec: float
    lam: float


@dataclass
class BackboneWeights:
    """Frozen host block: attention projections and a two-layer MLP."""

    wq: np.ndarray
    wk: np.ndarray
    wv0: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def seeded(cls, cfg, seed=0):
        rng = np.random.default_rng(seed)
        d = cfg.d
        h = 4 * d
        s = 1.0 / math.sqrt(d)
        return cls(
            wq=rng.normal(0.0, s, (d, d)),
            wk=rng.normal(0.0, s, (d, d)),
            wv0=rng.normal(0.0, s, (d, d)),
            wo=rng.normal(0.0, s, (d, d)),
            w1=rng.normal(0.0, s, (d, h)),
            b1=np.zeros(h),
            w2=rng.normal(0.0, 1.0 / math.sqrt(h), (h, d)),
            b2=np.zeros(d),
        )


@dataclass
class AdapterState:
    """All trainable matrices; zeros mean every mechanism is off."""

    a_v: np.ndarray  # d x r
    b_v: np.ndarray  # r x d
    p_v: np.ndarray  # d x (C_PHYS + D_G)
    b_pv: np.ndarray  # d
    w_r: np.ndarray  # HEADS x K_BANDS
    w_cperc: np.ndarray  # D_P x d, perceptual connector
    b_cperc: np.ndarray  # d
    w_film: np.ndarray  # d x 2d
    b_film: np.ndarray  # 2d
    w_p: np.ndarray  # C_PHYS x d
    w_c: np.ndarray  # d x d
    psi_w_t: np.ndarray  # PSI_HIDDEN x N_SIN
    psi_b_t: np.ndarray  # PSI_HIDDEN
    psi_emb: np.ndarray  # LAYERS x PSI_HIDDEN
    psi_w_head: np.ndarray  # 6 x PSI_HIDDEN
    psi_b_head: np.ndarray  # 6

    @classmethod
    def null(cls, cfg):
        return cls(
            a_v=np.zeros((cfg.d, cfg.rank)),
            b_v=np.zeros((cfg.rank, cfg.d)),
            p_v=np.zeros((cfg.d, C_PHYS + D_G)),
            b_pv=np.zeros(cfg.d),
            w_r=np.zeros((HEADS, K_BANDS)),
            w_cperc=np.zeros((D_P, cfg.d)),
            b_cperc=np.zeros(cfg.d),
            w_film=np.zeros((cfg.d, 2 * cfg.d)),
            b_film=np.zeros(2 * cfg.d),
            w_p=np.zeros((C_PHYS, cfg.d)),
            w_c=np.zeros((cfg.d, cfg.d)),
            psi_w_t=np.zeros((PSI_HIDDEN, N_SIN)),
            psi_b_t=np.zeros(PSI_HIDDEN),
            psi_emb=np.zeros((LAYERS, PSI_HIDDEN)),
            psi_w_head=np.zeros((6, PSI_HIDDEN)),
            psi_b_head=np.zeros(6),
        )

    @classmethod
    def seeded(cls, cfg, seed=0):
        state = cls.null(cfg)
        rng = np.random.default_rng(seed)
        for f in fields(state):
            arr = getattr(state, f.name)
            setattr(state, f.name, rng.normal(0.0, SEEDED_STD, arr.shape))
        return state

    def zeros_like(self):
        return AdapterState(**{f.name: np.zeros_like(getattr(self, f.name)) for f in fields(self)})


def psi(t, layer, state):
    """Timestep/layer conditioner: six affine heads on a SiLU-fused embedding."""
    if not 0.0 <= t <= 1.0:
        raise DomainError("t must lie in [0, 1]")
    if not 0 <= layer < LAYERS:
        raise IndexError(f"layer {layer} out of range for {LAYERS} layers")
    phase = 2.0 * np.pi * 2.0 ** np.arange(N_SIN // 2) * t
    sf = np.concatenate([np.sin(phase), np.cos(phase)])
    feat = state.psi_w_t @ sf + state.psi_b_t + state.psi_emb[layer]
    hv = _silu(feat)
    raw = state.psi_w_head @ hv + state.psi_b_head
    mod = ModulationParams(
        alpha_pga=float(raw[0]),
        beta_pga=float(raw[1]),
        alpha_pcm=float(raw[2]),
        beta_pcm=float(raw[3]),
        n_spec=float(tc.softplus(raw[4])),
        lam=float(tc.softplus(raw[5])),
    )
    cache = {"sf": sf, "feat": feat, "hv": hv, "raw": raw, "layer": layer}
    return mod, cache


def psi_backward(cache, state, grads, d_mod):
    """d_mod: gradient wrt the six emitted scalars (post softplus)."""
    raw = cache["raw"]
    dr = np.array(d_mod, dtype=np.float64)
    dr[4] *= tc.sigmoid(raw[4])
    dr[5] *= tc.sigmoid(raw[5])
    grads.psi_w_head += np.outer(dr, cache["hv"])
    grads.psi_b_head += dr
    dhv = state.psi_w_head.T @ dr
    dfeat = dhv * _silu_prime(cache["feat"])
    grads.psi_w_t += np.outer(dfeat, cache["sf"])
    grads.psi_b_t += dfeat
    grads.psi_emb[cache["layer"]] += dfeat


def pga_residual(state, phys_vec, r_spec, mod, cfg):
    """Gated low-rank residual for the attention value projection."""
    if phys_vec.shape != (C_PHYS + D_G,):
        raise DimensionError(f"phys_vec must have {C_PHYS + D_G} entries")
    if r_spec.shape != (K_BANDS,):
        raise DimensionError(f"r_spec must have {K_BANDS} entries")
    gate = tc.sigmoid(state.p_v @ phys_vec + state.b_pv)
    u_spec = state.w_r @ r_spec
    gvec = np.repeat(tc.softplus(u_spec), cfg.d // HEADS)
    cs = gate * (1.0 + mod.n_spec * gvec)
    ab = state.a_v @ state.b_v
    m = mod.alpha_pga * ab + mod.beta_pga * np.eye(cfg.d)
    r_mat = m * cs[None, :]
    cache = {
        "phys_vec": phys_vec, "r_spec": r_spec, "gate": gate, "u_spec": u_spec,
        "gvec": gvec, "cs": cs, "ab": ab, "m": m, "mod": mod,
    }
    return r_mat, cache


def pga_backward(cache, state, grads, d_r, cfg):
    """Returns gradients wrt (alpha_pga, beta_pga, n_spec)."""
    mod = cache["mod"]
    dm = d_r * cache["cs"][None, :]
    dcs = np.sum(d_r * cache["m"], axis=0)
    d_alpha = float(np.sum(dm * cache["ab"]))
    grads.a_v += mod.alpha_pga * (dm @ state.b_v.T)
    grads.b_v += mod.alpha_pga * (state.a_v.T @ dm)
    d_beta = float(np.trace(dm))
    dgate = dcs * (1.0 + mod.n_spec * cache["gvec"])
    d_nspec = float(np.sum(dcs * cache["gate"] * cache["gvec"]))
    dgvec = dcs * cache["gate"] * mod.n_spec
    du_gate = dgate * cache["gate"] * (1.0 - cache["gate"])
    grads.p_v += np.outer(du_gate, cache["phys_vec"])
    grads.b_pv += du_gate
    dsg = dgvec.reshape(HEADS, cfg.d // HEADS).sum(axis=1)
    du_spec = dsg * tc.sigmoid(cache["u_spec"])
    grads.w_r += np.outer(du_spec, cache["r_spec"])
    return d_alpha, d_beta, d_nspec


def pcm_film(h, t_perc, state, mod):
    """FiLM on normalized activations, identity when all adapters are zero."""
    if t_perc.shape[0] != h.shape[0]:
        raise DimensionError("perceptual tokens must match the latent token count")
    conn = t_perc @ state.w_cperc + state.b_cperc
    fm = conn @ state.w_film + state.b_film
    d = h.shape[1]
    gamma = mod.alpha_pcm * fm[:, :d] + mod.beta_pcm
    zeta = mod.alpha_pcm * fm[:, d:] + mod.beta_pcm
    xl = tc.layer_norm(h)
    out = (1.0 + gamma) * xl + zeta
    cache = {"conn": conn, "fm": fm, "gamma": gamma, "xl": xl, "mod": mod, "d": d}
    return out, cache


def pcm_backward(cache, state, grads, d_out):
    """Returns (d_conn, d_xl, d_alpha_pcm, d_beta_pcm); connector grads deferred."""
    mod = cache["mod"]
    d = cache["d"]
    fm = cache["fm"]
    d_gamma = d_out * cache["xl"]
    d_zeta = d_out
    d_xl = d_out * (1.0 + cache["gamma"])
    d_alpha = float(np.sum(d_gamma * fm[:, :d]) + np.sum(d_zeta * fm[:, d:]))
    d_beta = float(np.sum(d_gamma) + np.sum(d_zeta))
    d_fm = mod.alpha_pcm * np.concatenate([d_gamma, d_zeta], axis=1)
    grads.w_film += cache["conn"].T @ d_fm
    grads.b_film += d_fm.sum(axis=0)
    d_conn = d_fm @ state.w_film.T
    return d_conn, d_xl, d_alpha, d_beta


def coupler(z_res, t_phys_tokens, conn, state, mod):
    """Additive time/layer-gated fusion of physical and perceptual tracks."""
    base = t_phys_tokens @ state.w_p + conn @ state.w_c
    return z_res + mod.lam * base, base


def block_forward(z, t_phys_tokens, phys_vec, r_spec, t_perc, backbone, state, cfg,
                  t=0.5, layer=0):
    """One adapted transformer block; returns (output, cache)."""
    n, d = z.shape
    if d != cfg.d or n != cfg.n_tokens:
        raise DimensionError(f"latent must be {cfg.n_tokens}x{cfg.d}")
    mod, psi_cache = psi(t, layer, state)

    r_mat, pga_cache = pga_residual(state, phys_vec, r_spec, mod, cfg)

    x1 = tc.layer_norm(z)
    q = x1 @ backbone.wq
    k = x1 @ backbone.wk
    v = x1 @ (backbone.wv0 + r_mat)
    dk = d // HEADS
    qh = q.reshape(n, HEADS, dk).transpose(1, 0, 2)
    kh = k.reshape(n, HEADS, dk).transpose(1, 0, 2)
    vh = v.reshape(n, HEADS, dk).transpose(1, 0, 2)
    scores = qh @ kh.transpose(0, 2, 1) / math.sqrt(dk)
    attn_w = tc.softmax_rows(scores)
    oh = attn_w @ vh
    o = oh.transpose(1, 0, 2).reshape(n, d)
    attn_out = o @ backbone.wo

    film_out, film_cache = pcm_film(z, t_perc, state, mod)
    u1 = film_out @ backbone.w1 + backbone.b1
    mlp_out = _silu(u1) @ backbone.w2 + backbone.b2

    z_res = z + attn_out + mlp_out
    out, base = coupler(z_res, t_phys_tokens, film_cache["conn"], state, mod)

    cache = {
        "mod": mod, "psi_cache": psi_cache, "pga_cache": pga_cache,
        "x1": x1, "attn_w": attn_w, "u1": u1,
        "film_cache": film_cache, "base": base, "conn": film_cache["conn"],
        "t_phys_tokens": t_phys_tokens, "t_perc": t_perc,
        "n": n, "d": d, "dk": dk,
    }
    return out, cache


def block_backward(cache, backbone, state, cfg, d_out):
    """Reverse accumulation of adapter gradients; backbone stays frozen."""
    grads = state.zeros_like()
    mod = cache["mod"]
    n, d, dk = cache["n"], cache["d"], cache["dk"]

    # coupler
    d_zres = d_out
    d_lam = float(np.sum(d_out * cache["base"]))
    grads.w_p += mod.lam * (cache["t_phys_tokens"].T @ d_out)
    grads.w_c += mod.lam * (cache["conn"].T @ d_out)
    d_conn = mod.lam * (d_out @ state.w_c.T)

    # MLP branch
    d_mlp = d_zres
    d_a1 = d_mlp @ backbone.w2.T
    d_u1 = d_a1 * _silu_prime(cache["u1"])
    d_film_out = d_u1 @ backbone.w1.T
    d_conn_film, _, d_alpha_pcm, d_beta_pcm = pcm_backward(
        cache["film_cache"], state, grads, d_film_out
    )
    d_conn = d_conn + d_conn_film
    grads.w_cperc += cache["t_perc"].T @ d_conn
    grads.b_cperc += d_conn.sum(axis=0)

    # attention branch (only the value path carries adapter parameters)
    d_attn = d_zres
    d_o = d_attn @ backbone.wo.T
    d_oh = d_o.reshape(n, HEADS, dk).transpose(1, 0, 2)
    d_vh = cache["attn_w"].transpose(0, 2, 1) @ d_oh
    d_v = d_vh.transpose(1, 0, 2).reshape(n, d)
    d_r = cache["x1"].T @ d_v
    d_alpha_pga, d_beta_pga, d_nspec = pga_backward(cache["pga_cache"], state, grads, d_r, cfg)

    psi_backward(
        cache["psi_cache"], state, grads,
        [d_alpha_pga, d_beta_pga, d_alpha_pcm, d_beta_pcm, d_nspec, d_lam],
    )
    return grads


def vanilla_block_forward(z, backbone):
    """The unadapted host block, for backbone-preservation checks."""
    n, d = z.shape
    dk = d // HEADS
    x1 = tc.layer_norm(z)
    q = x1 @ backbone.wq
    k = x1 @ backbone.wk
    v = x1 @ backbone.wv0
    qh = q.reshape(n, HEADS, dk).transpose(1, 0, 2)
    kh = k.reshape(n, HEADS, dk).transpose(1, 0, 2)
    vh = v.reshape(n, HEADS, dk).transpose(1, 0, 2)
    attn_w = tc.softmax_rows(qh @ kh.transpose(0, 2, 1) / math.sqrt(dk))
    o = (attn_w @ vh).transpose(1, 0, 2).reshape(n, d)
    attn_out = o @ backbone.wo
    mlp_out = _silu(x1 @ backbone.w1 + backbone.b1) @ backbone.w2 + backbone.b2
    return z + attn_out + mlp_out


GRAD_GROUPS = {
    "a_v": ["a_v"],
    "b_v": ["b_v"],
    "p_v": ["p_v", "b_pv"],
    "w_r": ["w_r"],
    "film": ["w_cperc", "b_cperc", "w_film", "b_film"],
    "w_p": ["w_p"],
    "w_c": ["w_c"],
    "psi": ["psi_w_t", "psi_b_t", "psi_emb", "psi_w_head", "psi_b_head"],
}


def demo_inputs(cfg, seed=0):
    """Fixed random inputs exercising every block pathway."""
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 1.0, (cfg.n_tokens, cfg.d))
    t_phys_tokens = rng.normal(0.0, 1.0, (cfg.n_tokens, C_PHYS))
    phys_vec = rng.normal(0.0, 1.0, C_PHYS + D_G)
    r_spec = np.abs(rng.normal(0.0, 1.0, K_BANDS))
    t_perc = rng.normal(0.0, 1.0, (cfg.n_tokens, D_P))
    return z, t_phys_tokens, phys_vec, r_spec, t_perc


def grad_check_adapters(backbone, state, cfg, inputs):
    """Compare analytic adapter gradients against central differences.

    Probe loss is 0.5 * sum(out^2) at GRAD_CHECK_T and GRAD_CHECK_LAYER.
    Reports max relative error per group against GRAD_TOL.
    """
    z, tpt, pv, rs, tp = inputs
    t, layer = GRAD_CHECK_T, GRAD_CHECK_LAYER

    def loss_with(name, arr):
        # probe loss with one parameter array swapped in, then restored
        orig = getattr(state, name)
        setattr(state, name, arr)
        try:
            out, _ = block_forward(z, tpt, pv, rs, tp, backbone, state, cfg, t=t, layer=layer)
        finally:
            setattr(state, name, orig)
        return 0.5 * float(np.sum(out * out))

    out, cache = block_forward(z, tpt, pv, rs, tp, backbone, state, cfg, t=t, layer=layer)
    grads = block_backward(cache, backbone, state, cfg, out)

    report = {"tolerance": GRAD_TOL, "groups": {}, "passed": True}
    for group, names in GRAD_GROUPS.items():
        worst = 0.0
        for name in names:
            ana = getattr(grads, name)
            fd = tc.finite_diff_grad(partial(loss_with, name), getattr(state, name), FD_STEP)
            rel = np.abs(ana - fd) / np.maximum(np.abs(ana) + np.abs(fd), 1e-6)
            worst = max(worst, float(np.max(rel)))
        ok = bool(worst <= GRAD_TOL)
        report["groups"][group] = {"max_rel_error": float(worst), "pass": ok}
        report["passed"] = report["passed"] and ok
    return report


def low_rank_svd_tail(state, cfg):
    """Largest singular value of a_v @ b_v beyond index rank."""
    sv = np.linalg.svd(state.a_v @ state.b_v, compute_uv=False)
    return float(sv[cfg.rank]) if sv.size > cfg.rank else 0.0

