"""Trust mechanisms for outsourced shares (paper Sec. I, issue 3; Sec. VI b).

The paper names "providing an efficient trust mechanism to push both
database service providers and clients to behave honestly" as the make-or-
break problem of the outsourcing paradigm.  The verified read is the
client's checked read (``DataSource(verified_reads=True)``): it asks
k + r providers, decodes every cell robustly, votes on which rows are
present, and blames, quarantines and re-issues around a provider that
tampered with or omitted results — from the shares themselves, with no
per-share state at the client.  This package holds what a plain quorum
read has besides:

* :mod:`repro.trust.assurance` — **execution assurance**: client-planted
  canary tuples make lazy providers detectable probabilistically (Sion's
  challenge-token idea, paper ref [19]).
"""
