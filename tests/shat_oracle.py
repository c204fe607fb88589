"""The Shat table composed one entry at a time, kept as an oracle.

``shat_table_by_entry`` composes each entry of ``equivalence.shat_jet_table``
with its own ``compose``, as the table did before its entries shared one
``Substitution`` and with it the powers of f_0(z) and conj f_0(chi).
"""

from crjet.series import compose

ZC = ("z", "chi")


def shat_table_by_entry(Mhat, f0, n_max):
    """(j,k,l) -> Shat_{z^j chi^k tau^l}(f0(z), conj f0(chi), 0) for j+k+l <= n_max."""
    f0zc = f0.embed(ZC)
    f0bar = f0.conjugate(rename={"z": "chi"}).embed(ZC)
    table = {}
    for n in range(n_max + 1):
        for l in range(n + 1):
            s_l = Mhat.s_tau_jet(l)
            for j in range(n + 1 - l):
                k = n - l - j
                table[(j, k, l)] = compose(
                    s_l.differentiate("z", j).differentiate("chi", k),
                    {"z": f0zc, "chi": f0bar})
    return table
