#include "core/frequency_detector.h"

#include <algorithm>
#include <vector>

#include "sax/sax_word.h"

namespace gva {

StatusOr<FrequencyDetection> DetectRareWordAnomalies(
    std::span<const double> series, const FrequencyAnomalyOptions& options) {
  GVA_ASSIGN_OR_RETURN(SaxRecords records,
                       DiscretizeAllWindows(series, options.sax));
  const size_t windows = records.size();

  SaxWordInterner interner(records.words.paa());
  std::vector<int32_t> word_of(windows);
  std::vector<size_t> counts;
  for (size_t i = 0; i < windows; ++i) {
    bool first = false;
    word_of[i] = interner.Intern(records.words[i], &first);
    if (first) {
      counts.push_back(0);
    }
    ++counts[static_cast<size_t>(word_of[i])];
  }

  FrequencyDetection detection;
  detection.support.resize(windows);
  double min_support = 1.0;
  double max_support = 0.0;
  for (size_t i = 0; i < windows; ++i) {
    detection.support[i] =
        static_cast<double>(counts[static_cast<size_t>(word_of[i])]) /
        static_cast<double>(windows);
    min_support = std::min(min_support, detection.support[i]);
    max_support = std::max(max_support, detection.support[i]);
  }

  const double threshold =
      min_support +
      options.threshold_fraction * (max_support - min_support);

  // Maximal low-support runs of window positions; each run's reported span
  // extends to the end of its last window.
  size_t i = 0;
  while (i < windows) {
    if (detection.support[i] > threshold) {
      ++i;
      continue;
    }
    size_t j = i;
    double sum = 0.0;
    while (j < windows && detection.support[j] <= threshold) {
      sum += detection.support[j];
      ++j;
    }
    detection.anomalies.push_back(FrequencyAnomaly{
        Interval{i, std::min(series.size(), j - 1 + options.sax.window)},
        sum / static_cast<double>(j - i), 0});
    i = j;
  }

  std::stable_sort(detection.anomalies.begin(), detection.anomalies.end(),
                   [](const FrequencyAnomaly& a, const FrequencyAnomaly& b) {
                     return a.mean_support < b.mean_support;
                   });
  if (detection.anomalies.size() > options.max_anomalies) {
    detection.anomalies.resize(options.max_anomalies);
  }
  for (size_t r = 0; r < detection.anomalies.size(); ++r) {
    detection.anomalies[r].rank = r;
  }
  return detection;
}

}  // namespace gva
