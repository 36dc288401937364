package storage

import "errors"

// ErrTransient marks a storage failure as transient: the operation failed for
// a reason that a retry has a real chance of clearing (a flaky device, an
// injected fault, a momentarily unavailable backend), as opposed to the
// permanent errors of this package (ErrPageOutOfRange, ErrReadOnly, an
// over-full page), which no retry can fix. Retry loops above the storage
// layer — the serving catalog's index builds in particular — retry only
// errors that wrap ErrTransient.
var ErrTransient = errors.New("storage: transient fault")

// IsTransient reports whether err (or anything it wraps) is marked transient.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }
