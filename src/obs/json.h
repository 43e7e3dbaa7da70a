// The one JSON writer behind every artifact xfair emits: monitor
// snapshots, diagnostic bundles, run reports, Chrome traces, event-log
// lines and BENCH_*.json (DESIGN.md §6.4).
//
// Objects keep their members in a sorted map, so keys render sorted
// whatever order callers add them in; keys and strings are always
// escaped. Integers render exactly, doubles in the notation the caller
// names, non-finite doubles as null. Dump has exactly two layouts:
// kPretty (two-space indent, one member per line, `"key": value`) and
// kCompact (no whitespace; events.jsonl lines and trace.json). Empty
// objects and arrays render as {} and [] in both.

#ifndef XFAIR_OBS_JSON_H_
#define XFAIR_OBS_JSON_H_

#include <initializer_list>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace xfair::obs {

/// A JSON object (the default), array, or rendered scalar.
class Json {
 public:
  enum class Layout { kPretty, kCompact };

  Json() = default;
  Json(std::initializer_list<std::pair<const std::string, Json>> members)
      : members_(members) {}
  Json(std::vector<Json> items)
      : kind_(Kind::kArray), items_(std::move(items)) {}
  Json(const std::string& s);
  Json(const char* s) : Json(std::string(s)) {}
  Json(bool b) : kind_(Kind::kToken), token_(b ? "true" : "false") {}
  template <typename T, typename = std::enable_if_t<
                            std::is_integral_v<T> && !std::is_same_v<T, bool>>>
  Json(T v) : kind_(Kind::kToken), token_(std::to_string(v)) {}
  Json(double) = delete;  ///< Name the notation: Number or Fixed.

  /// `v` in "%.12g" (rates and statistics).
  static Json Number(double v);
  /// `v` with `decimals` fixed decimals (ms timings, BENCH rates).
  static Json Fixed(double v, int decimals);
  /// An already-rendered document, nested whole; kPretty re-indents it
  /// to the depth it is nested at.
  static Json Raw(std::string document);

  /// The member `key` of this object, added as {} when absent.
  Json& operator[](const std::string& key) { return members_[key]; }

  std::string Dump(Layout layout = Layout::kPretty) const;

 private:
  enum class Kind { kObject, kArray, kToken };
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_ = Kind::kObject;
  std::string token_;
  std::map<std::string, Json> members_;
  std::vector<Json> items_;
};

}  // namespace xfair::obs

#endif  // XFAIR_OBS_JSON_H_
