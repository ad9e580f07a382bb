// lolint corpus: malformed annotations spelled with the v2 rule ids each
// fire [bad-allow] — a missing reason, an empty reason, and a misspelled
// rule id.
// lolint:allow(mutable-static)
int first();
// lolint:allow(hot-path-alloc) reason=
int second();
// lolint:allow(mutable-statics) reason=misspelled rule id
int third();
